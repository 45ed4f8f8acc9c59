(* Tests for the test-time detection baselines: logic testing (MERO-style)
   and side-channel analysis. *)

module Netlist = Thr_gates.Netlist
module Bus = Thr_gates.Bus
module Word = Thr_gates.Word
module Logic_test = Thr_testtime.Logic_test
module Side_channel = Thr_testtime.Side_channel
module Harness = Thr_testtime.Harness
module Prng = Thr_util.Prng

let test_random_vectors () =
  let nl = Netlist.create ~name:"x" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  Netlist.output nl "o" (Netlist.and_ nl a b);
  let prng = Prng.create ~seed:1 in
  let vs = Logic_test.random_vectors ~prng nl 20 in
  Alcotest.(check int) "count" 20 (List.length vs);
  List.iter
    (fun v ->
      Alcotest.(check (list string)) "covers all inputs" [ "a"; "b" ]
        (List.map fst v))
    vs

let test_signal_probabilities () =
  (* o = a AND b: P(o=1) should be near 0.25 *)
  let nl = Netlist.create ~name:"p" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let o = Netlist.and_ nl a b in
  Netlist.output nl "o" o;
  let prng = Prng.create ~seed:2 in
  let profile = Logic_test.signal_probabilities ~prng ~samples:2000 nl in
  let idx = ref (-1) in
  Array.iteri
    (fun i net -> if Netlist.net_index net = Netlist.net_index o then idx := i)
    profile.Logic_test.nets;
  Alcotest.(check bool) "found the AND" true (!idx >= 0);
  let p = profile.Logic_test.one_probability.(!idx) in
  Alcotest.(check bool) "P(and) ~ 0.25" true (p > 0.18 && p < 0.32)

let test_rare_nodes () =
  (* a wide AND is rare-1; its complement branch is rare-0 *)
  let nl = Netlist.create ~name:"r" in
  let ins = List.init 6 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  let wide = Netlist.and_list nl ins in
  Netlist.output nl "o" wide;
  let prng = Prng.create ~seed:3 in
  let profile = Logic_test.signal_probabilities ~prng ~samples:1000 nl in
  let rare = Logic_test.rare_nodes profile ~theta:0.05 in
  Alcotest.(check bool) "found rare nodes" true
    (List.exists
       (fun (net, rare_value) ->
         Netlist.net_index net = Netlist.net_index wide && rare_value)
       rare)

let test_mero_improves_n_detect () =
  let prng = Prng.create ~seed:4 in
  let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:5 () in
  let nl = pair.Harness.suspect in
  let profile = Logic_test.signal_probabilities ~prng ~samples:256 nl in
  let rare = Logic_test.rare_nodes profile ~theta:0.1 in
  let base = Logic_test.random_vectors ~prng nl 64 in
  let refined = Logic_test.mero_refine ~prng ~rounds:500 nl rare base in
  let sum a = Array.fold_left ( + ) 0 a in
  let before = sum (Logic_test.n_detect_count nl rare base) in
  let after = sum (Logic_test.n_detect_count nl rare refined) in
  Alcotest.(check bool) "refinement keeps originals" true
    (List.length refined >= List.length base);
  Alcotest.(check bool) "hit counts do not decrease" true (after >= before)

let test_detect_finds_obvious_trojan () =
  let prng = Prng.create ~seed:5 in
  (* rare_bits=1: activates on 1/4 of random vectors *)
  let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:1 () in
  let vectors = Logic_test.random_vectors ~prng pair.Harness.suspect 128 in
  Alcotest.(check bool) "detected" true
    (Logic_test.detect ~golden:pair.Harness.golden ~suspect:pair.Harness.suspect
       vectors)

let test_detect_misses_rare_trojan () =
  let prng = Prng.create ~seed:6 in
  (* 2^-24 activation probability: 64 random vectors will not hit it *)
  let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:12 () in
  let vectors = Logic_test.random_vectors ~prng pair.Harness.suspect 64 in
  Alcotest.(check bool) "escaped" false
    (Logic_test.detect ~golden:pair.Harness.golden ~suspect:pair.Harness.suspect
       vectors)

let test_detect_identical_is_silent () =
  let prng = Prng.create ~seed:7 in
  let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:4 () in
  let vectors = Logic_test.random_vectors ~prng pair.Harness.golden 64 in
  Alcotest.(check bool) "no false positive" false
    (Logic_test.detect ~golden:pair.Harness.golden ~suspect:pair.Harness.golden
       vectors)

(* Vectors are applied with one clock edge each, and what is read is the
   post-edge state (Sim.clock's semantics): a difference that only a
   register exposes after the edge must be seen, and N-detect counts
   must equal a per-vector scalar walk on every net. *)
let test_sequential_edge_semantics () =
  let build name data =
    let nl = Netlist.create ~name in
    let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
    let q = Netlist.dff nl ~init:false (data nl a b) in
    Netlist.output nl "o" (Netlist.xor_ nl q (Netlist.and_ nl a b));
    Netlist.finalise nl;
    nl
  in
  let golden = build "g" (fun _ a _ -> a) in
  let suspect = build "s" (fun nl a b -> Netlist.and_ nl a b) in
  let prng = Prng.create ~seed:9 in
  let vectors = Logic_test.random_vectors ~prng golden 100 in
  Alcotest.(check bool) "post-edge register difference detected" true
    (Logic_test.detect ~golden ~suspect vectors);
  let rare =
    Array.to_list (Netlist.nets_in_order suspect)
    |> List.concat_map (fun net -> [ (net, true); (net, false) ])
  in
  let sim = Thr_gates.Sim.create suspect in
  let expected =
    List.map
      (fun (net, value) ->
        List.length
          (List.filter
             (fun v ->
               Thr_gates.Sim.reset sim;
               Thr_gates.Sim.step sim v;
               Thr_gates.Sim.peek sim net = value)
             vectors))
      rare
  in
  Alcotest.(check (list int)) "n-detect counts = scalar walk" expected
    (Array.to_list (Logic_test.n_detect_count suspect rare vectors))

(* --------------------------- side channel ------------------------- *)

let test_toggles_positive () =
  let prng = Prng.create ~seed:8 in
  let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:3 () in
  let vs = Logic_test.random_vectors ~prng pair.Harness.golden 32 in
  let trace = Side_channel.toggles pair.Harness.golden ~vectors:vs in
  Alcotest.(check int) "one entry per vector" 32 (Array.length trace);
  Alcotest.(check bool) "activity observed" true
    (Array.exists (fun c -> c > 0) trace)

let test_side_channel_self_comparison_clean () =
  (* a golden chip compared against its own population is not flagged *)
  let prng = Prng.create ~seed:9 in
  let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:3 () in
  let v =
    Side_channel.detect ~prng ~golden:pair.Harness.golden
      ~suspect:pair.Harness.golden ()
  in
  Alcotest.(check bool) "not flagged" false v.Side_channel.flagged;
  Alcotest.(check bool) "stats populated" true (v.Side_channel.golden_mean > 0.0)

let test_side_channel_flags_large_trojan_in_small_host () =
  let prng = Prng.create ~seed:10 in
  (* many matched bits = a big AND tree riding on a tiny adder *)
  let flagged = ref 0 in
  for _ = 1 to 5 do
    let pair = Harness.make_pair ~prng ~kind:Harness.Adder ~rare_bits:10 () in
    let v =
      Side_channel.detect ~prng ~noise:0.02 ~golden:pair.Harness.golden
        ~suspect:pair.Harness.suspect ()
    in
    if v.Side_channel.flagged then incr flagged
  done;
  Alcotest.(check bool) "mostly flagged" true (!flagged >= 3)

let test_side_channel_misses_small_trojan_in_large_host () =
  let prng = Prng.create ~seed:11 in
  let flagged = ref 0 in
  for _ = 1 to 5 do
    let pair = Harness.make_pair ~prng ~kind:Harness.Multiplier ~rare_bits:2 () in
    let v =
      Side_channel.detect ~prng ~golden:pair.Harness.golden
        ~suspect:pair.Harness.suspect ()
    in
    if v.Side_channel.flagged then incr flagged
  done;
  Alcotest.(check bool) "mostly hidden" true (!flagged <= 1)

(* ----------------------------- harness ---------------------------- *)

let test_runtime_always_catches () =
  let prng = Prng.create ~seed:12 in
  List.iter
    (fun rare_bits ->
      let pair = Harness.make_pair ~prng ~kind:Harness.Multiplier ~rare_bits () in
      let o = Harness.evaluate ~prng ~n_tests:32 pair in
      Alcotest.(check bool)
        (Printf.sprintf "runtime catches at rarity %d" rare_bits)
        true o.Harness.runtime_would_catch)
    [ 1; 4; 8; 12 ]

let test_make_pair_validation () =
  let prng = Prng.create ~seed:13 in
  Alcotest.check_raises "rare_bits too large"
    (Invalid_argument "Harness.make_pair: rare_bits out of range") (fun () ->
      ignore (Harness.make_pair ~prng ~width:8 ~kind:Harness.Adder ~rare_bits:9 ()))

let () =
  Alcotest.run "testtime"
    [
      ( "logic_test",
        [
          Alcotest.test_case "random vectors" `Quick test_random_vectors;
          Alcotest.test_case "signal probabilities" `Quick test_signal_probabilities;
          Alcotest.test_case "rare nodes" `Quick test_rare_nodes;
          Alcotest.test_case "mero improves N-detect" `Quick
            test_mero_improves_n_detect;
          Alcotest.test_case "detects obvious trojan" `Quick
            test_detect_finds_obvious_trojan;
          Alcotest.test_case "misses rare trojan" `Quick test_detect_misses_rare_trojan;
          Alcotest.test_case "identical silent" `Quick test_detect_identical_is_silent;
          Alcotest.test_case "sequential edge semantics" `Quick
            test_sequential_edge_semantics;
        ] );
      ( "side_channel",
        [
          Alcotest.test_case "toggle traces" `Quick test_toggles_positive;
          Alcotest.test_case "self comparison clean" `Quick
            test_side_channel_self_comparison_clean;
          Alcotest.test_case "flags large trojan" `Quick
            test_side_channel_flags_large_trojan_in_small_host;
          Alcotest.test_case "misses small trojan" `Slow
            test_side_channel_misses_small_trojan_in_large_host;
        ] );
      ( "harness",
        [
          Alcotest.test_case "runtime always catches" `Quick
            test_runtime_always_catches;
          Alcotest.test_case "validation" `Quick test_make_pair_validation;
        ] );
    ]
