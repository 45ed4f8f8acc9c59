(* Tests for the static analyser: structural lint, vendor taint
   verification and rare-net trigger scoring, including the acceptance
   properties (clean elaborations are clean; seeded Trojans and the
   comparator-bypass mutant are flagged). *)

module Netlist = Thr_gates.Netlist
module Bus = Thr_gates.Bus
module Finding = Thr_check.Finding
module Lint = Thr_check.Lint
module Taint = Thr_check.Taint
module Prob = Thr_check.Prob
module Check = Thr_check.Check
module Rtl = Thr_runtime.Rtl
module Engine = Thr_runtime.Engine
module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Trojan = Thr_trojan.Trojan
module Circuits = Thr_trojan.Circuits
module Eval = Thr_dfg.Eval
module Bmc = Thr_sat.Bmc
module Log = Thr_obs.Log

let rules fs = List.sort_uniq compare (List.map (fun f -> f.Finding.rule) fs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_rule rule fs = List.filter (fun f -> f.Finding.rule = rule) fs

let blocking fs = List.filter Finding.is_blocking fs

(* ------------------------------ lint ------------------------------ *)

let test_lint_rules_fire () =
  let nl = Netlist.create ~name:"lint_fixture" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let _floating = Netlist.input nl "floating" in
  let g = Netlist.and_ nl a b in
  let _dead = Netlist.or_ nl a b in
  let zero = Netlist.const nl false in
  let const_foldable = Netlist.and_ nl a zero in
  let equal_arms = Netlist.mux nl ~sel:b ~t0:g ~t1:g in
  let reachable_dff = Netlist.dff nl g in
  let unreachable = Netlist.dff nl a in
  let _unread = Netlist.dff nl unreachable in
  Netlist.output nl "o1" equal_arms;
  Netlist.output nl "o2" reachable_dff;
  Netlist.output nl "o3" const_foldable;
  Netlist.finalise nl;
  let fs = Lint.analyse nl in
  Alcotest.(check (list string))
    "every structural rule fires"
    [
      "const-foldable";
      "fanout";
      "floating-input";
      "mux-equal-arms";
      "unreachable-dff";
      "unused-net";
    ]
    (rules fs);
  Alcotest.(check int) "two dead nets" 2 (List.length (with_rule "unused-net" fs));
  Alcotest.(check bool) "findings block" true (List.exists Finding.is_blocking fs)

let test_lint_clean_netlist () =
  let nl = Netlist.create ~name:"clean" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let g = Netlist.xor_ nl a b in
  let q = Netlist.dff nl g in
  Netlist.output nl "q" q;
  Netlist.finalise nl;
  let fs = Lint.analyse nl in
  Alcotest.(check (list string)) "stats only" [ "fanout" ] (rules fs);
  Alcotest.(check int) "nothing blocks" 0 (List.length (blocking fs))

let test_const_values () =
  let nl = Netlist.create ~name:"cv" in
  let a = Netlist.input nl "a" in
  let t = Netlist.const nl true in
  let n1 = Netlist.not_ nl t in
  let n2 = Netlist.or_ nl n1 a in
  let n3 = Netlist.or_ nl t a in
  Netlist.output nl "o2" n2;
  Netlist.output nl "o3" n3;
  Netlist.finalise nl;
  let cv = Lint.const_values nl in
  let at n = cv.(Netlist.net_index n) in
  Alcotest.(check (option bool)) "not 1 = 0" (Some false) (at n1);
  Alcotest.(check (option bool)) "0 or a unknown" None (at n2);
  Alcotest.(check (option bool)) "1 or a = 1" (Some true) (at n3)

(* ------------------------------ taint ----------------------------- *)

(* two "vendor" gates feeding a comparator, one guarded output, one
   unguarded output *)
let taint_fixture () =
  let nl = Netlist.create ~name:"taint_fixture" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let v1 = Netlist.and_ nl a b in
  let v2 = Netlist.or_ nl a b in
  let cmp = Netlist.xor_ nl v1 v2 in
  let guarded = Netlist.mux nl ~sel:cmp ~t0:v1 ~t1:v2 in
  let unguarded = Netlist.not_ nl v1 in
  Netlist.output nl "mismatch" cmp;
  Netlist.output nl "good" guarded;
  Netlist.output nl "bad" unguarded;
  Netlist.finalise nl;
  let vendor_of n =
    if Netlist.net_index n = Netlist.net_index v1 then Some 1
    else if Netlist.net_index n = Netlist.net_index v2 then Some 2
    else None
  in
  (nl, cmp, v1, vendor_of)

let test_taint_propagation () =
  let nl, cmp, v1, vendor_of = taint_fixture () in
  let taint = Taint.propagate ~vendor_of nl in
  Alcotest.(check (list int)) "comparator sees both vendors" [ 1; 2 ]
    taint.(Netlist.net_index cmp);
  Alcotest.(check (list int)) "region label" [ 1 ] taint.(Netlist.net_index v1)

let test_taint_unguarded_output () =
  let nl, cmp, _, vendor_of = taint_fixture () in
  let fs, _ = Taint.analyse ~vendor_of ~mismatch:cmp nl in
  let errs = with_rule "unguarded-output" fs in
  Alcotest.(check int) "exactly one unguarded output" 1 (List.length errs);
  Alcotest.(check bool) "names the bad output" true
    (contains (List.hd errs).Finding.detail "output bad");
  Alcotest.(check int) "diversity satisfied" 0
    (List.length (with_rule "comparator-diversity" fs))

let test_taint_diversity () =
  let nl, cmp, _, vendor_of = taint_fixture () in
  let fs, _ = Taint.analyse ~vendor_of ~mismatch:cmp ~min_vendors:3 nl in
  Alcotest.(check int) "diversity violated at 3" 1
    (List.length (with_rule "comparator-diversity" fs))

(* ------------------------------ rare ------------------------------ *)

let test_prob_model () =
  let nl = Netlist.create ~name:"prob" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let g_and = Netlist.and_ nl a b in
  let g_or = Netlist.or_ nl a b in
  let g_not = Netlist.not_ nl a in
  Netlist.output nl "o1" g_and;
  Netlist.output nl "o2" g_or;
  Netlist.output nl "o3" g_not;
  Netlist.finalise nl;
  let p = Prob.signal_probabilities nl in
  let at n = p.(Netlist.net_index n) in
  Alcotest.(check (float 1e-9)) "and" 0.25 (at g_and);
  Alcotest.(check (float 1e-9)) "or" 0.75 (at g_or);
  Alcotest.(check (float 1e-9)) "not" 0.5 (at g_not)

let test_prob_counter_converges () =
  (* a free-running counter's bits must not oscillate to activation 0 *)
  let nl = Netlist.create ~name:"ctr" in
  let c = Bus.counter nl ~width:4 ~enable:(Netlist.const nl true) in
  Netlist.output nl "hit" (Bus.eq_const nl c 11);
  Netlist.finalise nl;
  let fs, p = Prob.analyse nl in
  Alcotest.(check int) "no rare nets in a counter" 0
    (List.length (with_rule "rare-net" fs));
  Alcotest.(check bool) "low bit near 0.5" true
    (Float.abs (p.(Netlist.net_index c.(0)) -. 0.5) < 0.01)

let seeded_harnesses () =
  [
    ( "fig2a",
      Circuits.fig2a ~width:16 ~a_pattern:0xDEAD ~b_pattern:0xBEEF
        ~mask:0xFFFF ~payload_mask:0x8 );
    ( "fig2b",
      Circuits.fig2b ~width:16 ~a_pattern:0xCAFE ~b_pattern:0x1234
        ~mask:0xFFFF ~threshold:2 ~payload_mask:0x8 );
    ( "fig3",
      Circuits.fig3 ~width:16 ~a_pattern:0xDEAD ~b_pattern:0xBEEF
        ~mask:0xFFFF ~payload_mask:0x8 );
  ]

let test_rare_flags_seeded_trojans () =
  List.iter
    (fun (name, h) ->
      Netlist.finalise h.Circuits.netlist;
      let fs, p = Prob.analyse h.Circuits.netlist in
      let flagged =
        List.filter_map (fun f -> f.Finding.net) (with_rule "rare-net" fs)
      in
      Alcotest.(check bool)
        (name ^ " trigger net flagged")
        true
        (List.mem (Netlist.net_index h.Circuits.trigger_net) flagged);
      let pt = p.(Netlist.net_index h.Circuits.trigger_net) in
      Alcotest.(check bool)
        (name ^ " trigger probability tiny")
        true
        (Float.min pt (1.0 -. pt) < Prob.default_threshold))
    (seeded_harnesses ())

(* --------------------- elaborated designs ------------------------- *)

let design_for ?mode name catalog l_det l_rec area =
  let dfg = Option.get (Thr_benchmarks.Suite.find name) in
  let spec =
    Spec.make ?mode ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
      ~area_limit:area ()
  in
  match Thr_opt.License_search.search spec with
  | Thr_opt.License_search.Solved { design; _ }, _ -> design
  | _ -> Alcotest.fail ("no design for " ^ name)

let clean_designs () =
  [
    ("motivational", design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000);
    ("diff2", design_for "diff2" Thr_iplib.Catalog.eight_vendors 5 4 80_000);
    ( "motivational-detection-only",
      design_for ~mode:Spec.Detection_only "motivational"
        Thr_iplib.Catalog.table1 4 3 40_000 );
  ]

let test_clean_elaborations_are_clean () =
  List.iter
    (fun (name, design) ->
      let rtl = Rtl.elaborate ~width:16 design in
      let report = Rtl.check rtl in
      let bad = blocking report.Check.findings in
      List.iter (fun f -> Printf.printf "%s: %s\n" name (Format.asprintf "%a" Finding.pp f)) bad;
      Alcotest.(check int) (name ^ " has no blocking findings") 0 (List.length bad);
      Alcotest.(check bool) (name ^ " is clean") true (Check.clean report);
      Alcotest.(check int)
        (name ^ " has zero trigger candidates")
        0
        (List.length (with_rule "rare-net" report.Check.findings)))
    (clean_designs ())

let injection_for design op =
  let nc = Copy.index design.Design.spec { Copy.op; phase = Copy.NC } in
  {
    Engine.inj_vendor = Binding.vendor design.Design.binding nc;
    inj_type = Spec.iptype_of_op design.Design.spec op;
    trojan =
      Trojan.make
        (Trojan.Combinational
           { a_pattern = 0xDEAD; b_pattern = 0xBEEF; mask = 0xFFFF })
        (Trojan.Xor_offset 0xFF);
  }

let test_rare_flags_rtl_injection () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~injections:[ injection_for design 4 ] design in
  let report = Rtl.check rtl in
  Alcotest.(check bool) "trigger candidates found" true
    (with_rule "rare-net" report.Check.findings <> []);
  Alcotest.(check bool) "not clean" false (Check.clean report)

let test_taint_flags_comparator_bypass () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~seeded_bug:Rtl.Comparator_skip design in
  let report = Rtl.check rtl in
  let errs = Check.errors report in
  Alcotest.(check bool) "taint errors reported" true (errs <> []);
  Alcotest.(check bool) "an output is unguarded" true
    (with_rule "unguarded-output" errs <> []);
  Alcotest.(check bool) "exit code is Lint" true
    (Check.exit_code report = Thr_util.Exit_code.Lint)

let test_elab_assertion_catches_bypass () =
  (* the post-elaboration assertion itself must reject the mutant when it
     is not explicitly seeded (simulate by running taint on the mutant) *)
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~seeded_bug:Rtl.Comparator_skip design in
  let fs, _ =
    Taint.analyse
      ~vendor_of:(Rtl.vendor_of rtl)
      ~mismatch:rtl.Rtl.mismatch rtl.Rtl.netlist
  in
  Alcotest.(check bool) "assertion condition trips" true
    (List.exists (fun f -> f.Finding.severity = Finding.Error) fs)

(* ------------------------ rare-net oracle ------------------------- *)

(* [Prob] must reproduce [Prob_reference], the uncompiled propagation it
   replaced, bit for bit: same float in every net, same findings. *)
let check_bit_equal what oracle probs =
  Alcotest.(check int) (what ^ ": net count") (Array.length oracle)
    (Array.length probs);
  Array.iteri
    (fun i o ->
      if not (Float.equal o probs.(i)) then
        Alcotest.failf "%s: net %d: oracle %h, compiled %h" what i o probs.(i))
    oracle

let finding_fields fs =
  List.map
    (fun f ->
      Printf.sprintf "%s %s %s: %s" f.Finding.rule
        (Option.fold ~none:"-" ~some:string_of_int f.Finding.net)
        (Finding.severity_name f.Finding.severity)
        f.Finding.detail)
    fs

(* The design a {"op":"lint"} request elaborates: the DFG's wire text,
   the eight-vendor catalogue, detection and recovery, the default
   latency and area, the licence search. *)
let lint_design name =
  let text =
    Thr_dfg.Parse.to_string (Option.get (Thr_benchmarks.Suite.find name))
  in
  let dfg =
    match Thr_dfg.Parse.of_string text with
    | Ok dfg -> dfg
    | Error _ -> Alcotest.fail ("wire text of " ^ name ^ " does not parse")
  in
  let spec =
    Spec.make ~mode:Spec.Detection_and_recovery ~dfg
      ~catalog:Thr_iplib.Catalog.eight_vendors
      ~latency_detect:(Thr_dfg.Dfg.critical_path dfg + 1)
      ~area_limit:(10 * 7000 * Thr_dfg.Dfg.n_ops dfg)
      ()
  in
  match Trojan_hls.Optimize.run ~jobs:1 spec with
  | Ok { Trojan_hls.Optimize.design; _ } -> design
  | Error _ -> Alcotest.fail ("no design for " ^ name)

let lint_mutants =
  [
    ("none", fun ~width:_ _ -> []);
    ("trojan", fun ~width d -> [ Rtl.canned_injection ~width d ]);
    ("trojan-seq", fun ~width d -> [ Rtl.canned_sequential_injection ~width d ]);
    ("trojan-dud", fun ~width d -> [ Rtl.canned_dud_injection ~width d ]);
  ]

let test_rare_oracle ~width name () =
  let design = lint_design name in
  List.iter
    (fun (mutant, injections) ->
      let what = Printf.sprintf "%s/%d/%s" name width mutant in
      let rtl =
        Rtl.elaborate ~width ~injections:(injections ~width design) design
      in
      let nl = rtl.Rtl.netlist in
      let exclude =
        Netlist.in_cone nl ~through_dffs:false
          ~roots:[ (Rtl.taint_spec rtl).Check.mismatch ]
          ()
      in
      let fs, probs = Prob.analyse ~exclude nl in
      let oracle_fs, oracle = Prob_reference.analyse ~exclude nl in
      check_bit_equal what oracle probs;
      Alcotest.(check (list string))
        (what ^ ": findings") (finding_fields oracle_fs) (finding_fields fs))
    lint_mutants

(* Random sequential netlists built around the hold-mux idiom
   [q' = mux en q new]: a few enables shared by several registers,
   enables driven by NOT gates, registers, constants and plain gates,
   registers loading another register (DFF -> DFF chains), constant mux
   arms both inside the logic and as a register's [new]. *)
type hold_plan = {
  n_inputs : int;
  inits : bool list;  (* one register each *)
  gates : (int * int * int * int) list;  (* kind, operand picks *)
  enables : (int * int) list;  (* driver kind, pick *)
  regs : (int * int * int) list;  (* shape, enable pick, arm pick *)
}

let hold_plan_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun n_regs ->
    map
      (fun ((n_inputs, inits), (gates, enables, regs)) ->
        { n_inputs; inits; gates; enables; regs })
      (pair
         (pair (int_range 1 4) (list_repeat n_regs bool))
         (triple
            (list_size (int_range 1 30)
               (quad (int_bound 7) nat nat nat))
            (list_size (int_range 1 3) (pair (int_bound 3) nat))
            (list_repeat n_regs (triple (int_bound 3) nat nat)))))

let print_hold_plan p =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "inputs %d inits [%s] gates [%s] enables [%s] regs [%s]"
    p.n_inputs
    (String.concat "," (List.map string_of_bool p.inits))
    (String.concat ";" (List.map (fun (k, a, b, c) -> ints [ k; a; b; c ]) p.gates))
    (String.concat ";" (List.map (fun (k, a) -> ints [ k; a ]) p.enables))
    (String.concat ";" (List.map (fun (k, a, b) -> ints [ k; a; b ]) p.regs))

let hold_netlist p =
  let nl = Netlist.create ~name:"hold" in
  let ins =
    List.init p.n_inputs (fun k -> Netlist.input nl (Printf.sprintf "i%d" k))
  in
  let c0 = Netlist.const nl false and c1 = Netlist.const nl true in
  let const x = if x mod 2 = 0 then c0 else c1 in
  let regs = Array.of_list p.regs in
  let qs =
    Netlist.dff_loop_many nl ~inits:(Array.of_list p.inits) (fun qs ->
        let sources = Array.of_list (ins @ Array.to_list qs @ [ c0; c1 ]) in
        let pool = ref sources in
        let pick x = !pool.(x mod Array.length !pool) in
        (* a gate, when there is one: enables and arms that are gates
           carry stored conditioning tags into the arms' cones; an
           [older] gate (first half) has later gates reading it *)
        let pick_gate ?(older = false) x =
          let n_gates = Array.length !pool - Array.length sources in
          let n_gates = if older then (n_gates + 1) / 2 else n_gates in
          if n_gates = 0 then pick x
          else !pool.(Array.length sources + (x mod n_gates))
        in
        (* gate operands lean to the newest nets, so cones reconverge
           and literals meet *)
        let operand x =
          let n = Array.length !pool in
          if x mod 2 = 0 then !pool.(n - 1 - (x / 2 mod min n 4)) else pick x
        in
        List.iter
          (fun (kind, x, y, z) ->
            let a = operand x and b = operand y and s = operand z in
            let g =
              match kind with
              | 0 -> Netlist.not_ nl a
              | 1 -> Netlist.and_ nl a b
              | 2 -> Netlist.or_ nl a b
              | 3 -> Netlist.xor_ nl a b
              | 4 -> Netlist.nand_ nl a b
              | 5 -> Netlist.nor_ nl a b
              | 6 -> Netlist.mux nl ~sel:s ~t0:a ~t1:b
              | _ ->
                  if y mod 2 = 0 then Netlist.mux nl ~sel:s ~t0:(const x) ~t1:b
                  else Netlist.mux nl ~sel:s ~t0:a ~t1:(const x)
            in
            pool := Array.append !pool [| g |])
          p.gates;
        let enables =
          Array.of_list
            (List.map
               (fun (kind, x) ->
                 match kind with
                 | 0 -> Netlist.not_ nl (pick x)
                 | 1 -> qs.(x mod Array.length qs)
                 | 2 -> const x
                 | _ -> pick_gate ~older:true x)
               p.enables)
        in
        Array.mapi
          (fun r q ->
            let shape, e, x = regs.(r) in
            let en = enables.(e mod Array.length enables) in
            let arm =
              match x mod 4 with
              | 0 -> qs.(x / 4 mod Array.length qs)
              | 1 -> pick x
              | _ -> pick_gate x
            in
            match shape with
            | 0 -> Netlist.mux nl ~sel:en ~t0:q ~t1:arm
            | 1 -> Netlist.mux nl ~sel:en ~t0:arm ~t1:q
            | 2 -> Netlist.mux nl ~sel:en ~t0:q ~t1:(const x)
            | _ -> arm)
          qs)
  in
  Array.iteri (fun r q -> Netlist.output nl (Printf.sprintf "q%d" r) q) qs;
  Netlist.finalise nl;
  nl

let hold_mux_matches_oracle =
  QCheck.Test.make ~name:"hold-mux netlists match the oracle (iters 1, 2, 24)"
    ~count:1000
    (QCheck.make ~print:print_hold_plan hold_plan_gen)
    (fun plan ->
      let nl = hold_netlist plan in
      List.for_all
        (fun iters ->
          let oracle = Prob_reference.signal_probabilities ~iters nl in
          let probs = Prob.signal_probabilities ~iters nl in
          Array.length oracle = Array.length probs
          && Array.for_all2 Float.equal oracle probs
          || QCheck.Test.fail_reportf "iters %d: probabilities differ" iters)
        [ 1; 2; 24 ])

(* ------------------------- taint oracle --------------------------- *)

(* [Taint] must reproduce [Taint_reference], the list-label pass with a
   per-output cone walk it replaced: equal labels on every net, equal
   findings. *)

(* Random register-feedback netlists.  Vendor ids are sparse; regions
   are contiguous runs of net indices plus scattered single nets (so a
   vendor can own several disjoint regions), or, in the [many] mode,
   one of 64-130 vendors on nearly every net (multi-word labels).  The
   [mismatch] net is random; guard gates read it, and registers may
   load them, so some outputs are guarded through DFFs.  Outputs are
   picked to be observed (in [mismatch]'s cone), guarded (a guard gate)
   or arbitrary. *)
type taint_plan = {
  t_inputs : int;
  t_inits : bool list;  (* one register each *)
  t_gates : (int * int * int * int) list;  (* kind, operand picks *)
  t_mismatch : int;
  t_guards : (int * int) list;  (* kind, operand pick *)
  t_nexts : int list;  (* register next-state picks *)
  t_many : bool;
  t_ids : int list;  (* vendor id pool (sparse) *)
  t_regions : (int * int * int) list;  (* start, length, vendor pick *)
  t_scatter : (int * int) list;  (* net pick, vendor pick *)
  t_outputs : (int * int) list;  (* kind, pick *)
  t_min_vendors : int;
}

let taint_plan_gen =
  QCheck.Gen.(
    bool >>= fun many ->
    int_range 1 8 >>= fun n_regs ->
    (if many then int_range 64 130 else int_range 1 6) >>= fun n_ids ->
    let gates =
      list_size
        (if many then int_range 140 200 else int_range 1 40)
        (quad (int_bound 6) nat nat nat)
    in
    map
      (fun (((t_inputs, t_inits, t_mismatch), (t_gates, t_guards, t_nexts)),
            ((t_ids, t_regions, t_scatter), (t_outputs, t_min_vendors))) ->
        { t_inputs; t_inits; t_gates; t_mismatch; t_guards; t_nexts;
          t_many = many; t_ids; t_regions; t_scatter; t_outputs;
          t_min_vendors })
      (pair
         (pair
            (triple (int_range 1 4) (list_repeat n_regs bool) nat)
            (triple gates
               (list_size (int_range 0 4) (pair (int_bound 2) nat))
               (list_repeat n_regs nat)))
         (pair
            (triple
               (list_repeat n_ids (int_range (-1000) 1_000_000))
               (list_size (int_range 0 5) (triple nat (int_range 1 30) nat))
               (list_size (int_range 0 8) (pair nat nat)))
            (pair
               (list_size (int_range 1 8) (pair (int_bound 2) nat))
               (int_range 1 4)))))

let print_taint_plan p =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf
    "inputs %d inits [%s] gates [%s] mismatch %d guards [%s] nexts [%s] \
     many %b ids [%s] regions [%s] scatter [%s] outputs [%s] min_vendors %d"
    p.t_inputs
    (String.concat "," (List.map string_of_bool p.t_inits))
    (String.concat ";" (List.map (fun (k, a, b, c) -> ints [ k; a; b; c ]) p.t_gates))
    p.t_mismatch
    (String.concat ";" (List.map (fun (k, a) -> ints [ k; a ]) p.t_guards))
    (ints p.t_nexts) p.t_many (ints p.t_ids)
    (String.concat ";" (List.map (fun (a, b, c) -> ints [ a; b; c ]) p.t_regions))
    (String.concat ";" (List.map (fun (a, b) -> ints [ a; b ]) p.t_scatter))
    (String.concat ";" (List.map (fun (a, b) -> ints [ a; b ]) p.t_outputs))
    p.t_min_vendors

(* the netlist, its [vendor_of] and its [mismatch] net *)
let taint_netlist p =
  let nl = Netlist.create ~name:"taint" in
  let ins =
    List.init p.t_inputs (fun k -> Netlist.input nl (Printf.sprintf "i%d" k))
  in
  let c0 = Netlist.const nl false and c1 = Netlist.const nl true in
  let mismatch = ref c0 and guards = ref [||] and pool = ref [||] in
  let _qs =
    Netlist.dff_loop_many nl ~inits:(Array.of_list p.t_inits) (fun qs ->
        pool := Array.of_list (ins @ Array.to_list qs @ [ c0; c1 ]);
        let pick x = !pool.(x mod Array.length !pool) in
        List.iter
          (fun (kind, x, y, z) ->
            let a = pick x and b = pick y and s = pick z in
            let g =
              match kind with
              | 0 -> Netlist.not_ nl a
              | 1 -> Netlist.and_ nl a b
              | 2 -> Netlist.or_ nl a b
              | 3 -> Netlist.xor_ nl a b
              | 4 -> Netlist.nand_ nl a b
              | 5 -> Netlist.nor_ nl a b
              | _ -> Netlist.mux nl ~sel:s ~t0:a ~t1:b
            in
            pool := Array.append !pool [| g |])
          p.t_gates;
        mismatch := pick p.t_mismatch;
        guards :=
          Array.of_list
            (List.map
               (fun (kind, x) ->
                 let a = pick x in
                 match kind with
                 | 0 -> Netlist.xor_ nl !mismatch a
                 | 1 -> Netlist.mux nl ~sel:!mismatch ~t0:a ~t1:c0
                 | _ -> Netlist.not_ nl !mismatch)
               p.t_guards);
        pool := Array.append !pool !guards;
        Array.of_list (List.map pick p.t_nexts))
  in
  let pick x = !pool.(x mod Array.length !pool) in
  let observed =
    let cone = Netlist.in_cone nl ~roots:[ !mismatch ] () in
    Array.of_list (List.filter (fun x -> cone.(Netlist.net_index x)) (Array.to_list !pool))
  in
  List.iteri
    (fun k (kind, x) ->
      let net =
        match kind with
        | 0 when Array.length observed > 0 -> observed.(x mod Array.length observed)
        | 1 when Array.length !guards > 0 -> !guards.(x mod Array.length !guards)
        | _ -> pick x
      in
      Netlist.output nl (Printf.sprintf "o%d" k) net)
    p.t_outputs;
  Netlist.finalise nl;
  let n = Netlist.n_nets nl in
  let ids = Array.of_list p.t_ids in
  let id x = ids.(x mod Array.length ids) in
  let vendor = Array.make n None in
  if p.t_many then
    (* every vendor on some net when there are enough nets; net 0 of
       every 11 stays untainted *)
    Array.iteri
      (fun i _ -> if i mod 11 <> 0 then vendor.(i) <- Some (id (i * 7)))
      vendor
  else begin
    List.iter
      (fun (start, len, v) ->
        for i = start mod n to min (n - 1) ((start mod n) + len - 1) do
          vendor.(i) <- Some (id v)
        done)
      p.t_regions;
    List.iter (fun (x, v) -> vendor.(x mod n) <- Some (id v)) p.t_scatter
  end;
  (nl, (fun net -> vendor.(Netlist.net_index net)), !mismatch)

let taint_matches_oracle =
  QCheck.Test.make ~name:"random register-feedback netlists match the oracle"
    ~count:1000
    (QCheck.make ~print:print_taint_plan taint_plan_gen)
    (fun p ->
      let nl, vendor_of, mismatch = taint_netlist p in
      let min_vendors = p.t_min_vendors in
      (Taint.propagate ~vendor_of nl = Taint_reference.propagate ~vendor_of nl
      || QCheck.Test.fail_report "propagate: labels differ")
      && (Taint.analyse ~vendor_of ~mismatch ~min_vendors nl
          = Taint_reference.analyse ~vendor_of ~mismatch ~min_vendors nl
         || QCheck.Test.fail_report "analyse: findings or labels differ"))

let check_taint_oracle what rtl =
  let nl = rtl.Rtl.netlist in
  let { Check.vendor_of; mismatch; min_vendors } = Rtl.taint_spec rtl in
  (* the per-net vendor table must answer like a front-to-back scan of
     the elaboration's regions *)
  let scan net =
    let i = Netlist.net_index net in
    List.find_map
      (fun (lo, hi, v) -> if i >= lo && i <= hi then Some v else None)
      rtl.Rtl.vendor_regions
  in
  Alcotest.(check bool) (what ^ ": vendor_of = region scan") true
    (Array.for_all
       (fun net -> vendor_of net = scan net)
       (Netlist.nets_in_order nl));
  let fs, labels = Taint.analyse ~vendor_of ~mismatch ~min_vendors nl in
  let oracle_fs, oracle = Taint_reference.analyse ~vendor_of ~mismatch ~min_vendors nl in
  Alcotest.(check (array (list int))) (what ^ ": labels") oracle labels;
  Alcotest.(check (list string))
    (what ^ ": findings") (finding_fields oracle_fs) (finding_fields fs);
  Alcotest.(check bool) (what ^ ": findings equal") true (oracle_fs = fs)

(* The fault-simulation elaboration: the {!Trojan.zoo} as gated
   injections on the NC copy of the first output, as
   [Campaign.cosim_mutants] builds it. *)
let zoo_injections ~width design =
  let spec = design.Design.spec in
  let op = List.hd (Thr_dfg.Dfg.outputs spec.Spec.dfg) in
  let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
  let mask = (1 lsl width) - 1 in
  List.map
    (fun (nm, trojan) ->
      ( "mut_" ^ nm,
        {
          Engine.inj_vendor = Binding.vendor design.Design.binding nc;
          inj_type = Spec.iptype_of_op spec op;
          trojan;
        } ))
    (Trojan.zoo ~a_pattern:(0x35 land mask) ~b_pattern:(0xCA land mask) ~mask)

let test_taint_oracle name () =
  let design = lint_design name in
  List.iter
    (fun width ->
      let what kind = Printf.sprintf "%s/%d/%s" name width kind in
      check_taint_oracle (what "clean") (Rtl.elaborate ~width design);
      check_taint_oracle (what "trojan")
        (Rtl.elaborate ~width ~injections:[ Rtl.canned_injection ~width design ]
           design);
      check_taint_oracle (what "zoo")
        (Rtl.elaborate ~width
           ~gated_injections:(zoo_injections ~width design)
           design);
      check_taint_oracle (what "bypass")
        (Rtl.elaborate ~width ~seeded_bug:Rtl.Comparator_skip design))
    [ 8; 16 ]

(* the netlist behind `thls lint motivational --catalog table1 --latency 4
   --latency-recover 3 --area 40000 --mutant bypass` *)
let test_taint_oracle_lint_bypass () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~seeded_bug:Rtl.Comparator_skip design in
  check_taint_oracle "lint --mutant bypass" rtl

(* ------------------------------ prove ----------------------------- *)

let prove_stats report =
  match report.Check.prove with
  | Some s -> s
  | None -> Alcotest.fail "report carries no prove stats"

let test_prove_clean_design () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 design in
  let report = Rtl.check ~prove:8 rtl in
  let s = prove_stats report in
  Alcotest.(check bool) "still clean" true (Check.clean report);
  Alcotest.(check bool) "exit Ok" true
    (Check.exit_code report = Thr_util.Exit_code.Ok);
  Alcotest.(check int) "no candidates" 0 s.Check.prove_candidates;
  Alcotest.(check int) "bound recorded" 8 s.Check.prove_bound

let test_prove_seq_injection () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl =
    Rtl.elaborate ~width:16
      ~injections:[ Rtl.canned_sequential_injection ~width:16 design ]
      design
  in
  let report = Rtl.check ~prove:8 rtl in
  let s = prove_stats report in
  let proved = with_rule "proved-reachable" report.Check.findings in
  Alcotest.(check bool) "candidates found" true (s.Check.prove_candidates > 0);
  Alcotest.(check int) "every candidate proved reachable"
    s.Check.prove_candidates s.Check.prove_reachable;
  Alcotest.(check int) "no replay failures" 0 s.Check.prove_replay_failed;
  Alcotest.(check bool) "escalated to errors" true
    (proved <> []
    && List.for_all (fun f -> f.Finding.severity = Finding.Error) proved);
  Alcotest.(check bool) "witness text carries a cycle" true
    (List.for_all (fun f -> contains f.Finding.detail "cycle") proved);
  Alcotest.(check bool) "exit code is Lint" true
    (Check.exit_code report = Thr_util.Exit_code.Lint)

let test_prove_budget_inconclusive () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl =
    Rtl.elaborate ~width:16
      ~injections:[ Rtl.canned_sequential_injection ~width:16 design ]
      design
  in
  let report = Rtl.check ~prove:8 ~prove_budget:1 rtl in
  let s = prove_stats report in
  Alcotest.(check int) "every candidate inconclusive" s.Check.prove_candidates
    s.Check.prove_inconclusive;
  Alcotest.(check int) "nothing proved" 0 s.Check.prove_reachable;
  Alcotest.(check bool) "rare-inconclusive warnings remain" true
    (with_rule "rare-inconclusive" report.Check.findings <> []);
  Alcotest.(check bool) "exit code is Inconclusive" true
    (Check.exit_code report = Thr_util.Exit_code.Inconclusive)

let test_prove_dud_certified () =
  (* the decoy injection scores rare but its trigger is structurally
     unsatisfiable: --prove must discharge every candidate with an
     unbounded certificate and leave the design clean *)
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl =
    Rtl.elaborate ~width:16
      ~injections:[ Rtl.canned_dud_injection ~width:16 design ]
      design
  in
  let report = Rtl.check ~prove:8 rtl in
  let s = prove_stats report in
  let certs = with_rule "unreachable-unbounded" report.Check.findings in
  Alcotest.(check bool) "candidates found" true (s.Check.prove_candidates > 0);
  Alcotest.(check int) "every candidate certified" s.Check.prove_candidates
    s.Check.prove_certified;
  Alcotest.(check int) "none inconclusive" 0 s.Check.prove_inconclusive;
  Alcotest.(check int) "one certificate finding per candidate"
    s.Check.prove_candidates (List.length certs);
  Alcotest.(check bool) "certificates name their method" true
    (List.for_all
       (fun f ->
         contains f.Finding.detail "k-induction"
         || contains f.Finding.detail "combinational")
       certs);
  Alcotest.(check bool) "still clean" true (Check.clean report);
  Alcotest.(check bool) "exit Ok" true
    (Check.exit_code report = Thr_util.Exit_code.Ok)

let test_prove_replay_gate () =
  (* a prover that fabricates witnesses must not produce errors: the
     packed-simulator replay gate downgrades them and logs the bug *)
  let h =
    Circuits.fig2b ~width:16 ~a_pattern:0xCAFE ~b_pattern:0x1234 ~mask:0xFFFF
      ~threshold:2 ~payload_mask:0x8
  in
  let nl = h.Circuits.netlist in
  Netlist.finalise nl;
  let bogus ~net ~value =
    Bmc.Reachable
      { Bmc.w_target = net; w_value = value; w_cycle = 1; w_inputs = [| [] |] }
  in
  let logged = Buffer.create 256 in
  Log.set_sink (Some (fun line -> Buffer.add_string logged line));
  let report =
    Fun.protect
      ~finally:(fun () -> Log.set_sink None)
      (fun () -> Check.run ~prove:8 ~prover:bogus nl)
  in
  let s = prove_stats report in
  Alcotest.(check bool) "replay failures counted" true
    (s.Check.prove_replay_failed > 0);
  Alcotest.(check bool) "mismatch findings reported" true
    (with_rule "witness-replay-mismatch" report.Check.findings <> []);
  Alcotest.(check bool) "rare warnings survive the downgrade" true
    (with_rule "rare-net" report.Check.findings <> []);
  Alcotest.(check bool) "replay bug logged" true
    (contains (Buffer.contents logged) "witness_replay_mismatch")

(* --------------------------- reporting ---------------------------- *)

let test_report_json_and_render () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 design in
  let report = Rtl.check rtl in
  let json = Check.to_json report in
  Alcotest.(check (option bool)) "clean in json" (Some true)
    (Thr_util.Json.mem_bool "clean" json);
  Alcotest.(check bool) "render mentions verdict" true
    (contains (Check.render report) "clean")

let () =
  Alcotest.run "check"
    [
      ( "lint",
        [
          Alcotest.test_case "all rules fire" `Quick test_lint_rules_fire;
          Alcotest.test_case "clean netlist" `Quick test_lint_clean_netlist;
          Alcotest.test_case "const values" `Quick test_const_values;
        ] );
      ( "taint",
        [
          Alcotest.test_case "propagation" `Quick test_taint_propagation;
          Alcotest.test_case "unguarded output" `Quick test_taint_unguarded_output;
          Alcotest.test_case "diversity" `Quick test_taint_diversity;
          QCheck_alcotest.to_alcotest taint_matches_oracle;
          Alcotest.test_case "oracle: lint --mutant bypass" `Quick
            test_taint_oracle_lint_bypass;
        ]
        @ List.map
            (fun name ->
              Alcotest.test_case ("oracle: " ^ name) `Quick
                (test_taint_oracle name))
            [ "motivational"; "polynom"; "diff2"; "dtmf"; "mof2"; "elliptic"; "fir16" ] );
      ( "rare",
        [
          Alcotest.test_case "probability model" `Quick test_prob_model;
          Alcotest.test_case "counter converges" `Quick test_prob_counter_converges;
          Alcotest.test_case "flags seeded trojans" `Quick test_rare_flags_seeded_trojans;
          QCheck_alcotest.to_alcotest hold_mux_matches_oracle;
        ]
        @ List.map
            (fun (name, width, speed) ->
              Alcotest.test_case
                (Printf.sprintf "oracle: %s width %d" name width)
                speed
                (test_rare_oracle ~width name))
            [
              ("motivational", 8, `Quick);
              ("polynom", 8, `Quick);
              ("diff2", 8, `Quick);
              ("dtmf", 8, `Slow);
              ("mof2", 8, `Slow);
              ("elliptic", 8, `Slow);
              ("fir16", 8, `Slow);
              ("motivational", 16, `Slow);
              ("polynom", 16, `Slow);
            ] );
      ( "elaborations",
        [
          Alcotest.test_case "clean designs are clean" `Quick
            test_clean_elaborations_are_clean;
          Alcotest.test_case "rtl injection flagged" `Quick
            test_rare_flags_rtl_injection;
          Alcotest.test_case "comparator bypass flagged" `Quick
            test_taint_flags_comparator_bypass;
          Alcotest.test_case "elab assertion trips" `Quick
            test_elab_assertion_catches_bypass;
        ] );
      ( "prove",
        [
          Alcotest.test_case "clean design certifies" `Quick
            test_prove_clean_design;
          Alcotest.test_case "sequential injection proved" `Quick
            test_prove_seq_injection;
          Alcotest.test_case "budget starves to inconclusive" `Quick
            test_prove_budget_inconclusive;
          Alcotest.test_case "decoy injection certified unreachable" `Quick
            test_prove_dud_certified;
          Alcotest.test_case "replay gate rejects fabricated witnesses" `Quick
            test_prove_replay_gate;
        ] );
      ( "report",
        [
          Alcotest.test_case "json and render" `Quick test_report_json_and_render;
        ] );
    ]
