(* Benchmark worker: runs one named workload as a closed loop (one client,
   next request only after the previous one returned, jobs = 1, no other
   domains) against the public entry points a user reaches, checks every
   output, and prints one JSON object of raw measurements on stdout.
   perfbench/run.py turns that object into the named metrics.

     main.exe run --workload solve|lint|faultsim --seed N --seconds S
                  --trace 0|1 --tmp DIR
     main.exe setup --workload W --seed N --tmp DIR
     main.exe calibrate

   A workload is a fixed request list derived from the seed.  One pass
   runs the whole list against fresh program state; a run is a whole
   number of identical passes, fixed by --seconds (the pass count that
   lasts about that long on the reference machine, and at least
   [min_passes]), so the work done depends only on the seed and
   --seconds, never on the wall clock.

   [setup] does only the set-up of a run in a fresh process and prints
   "ready" when the first request could go out; run.py times it from the
   process start.

   With --trace 1 half as many passes run twice: untraced first (for the
   overhead ratio), then traced, with the program's own Thr_obs.Trace
   spans plus the benchmark's spans around the runtime calls that carry
   none.  Between requests the span buffer is folded into per-name self
   times long before the tracer's ring could wrap. *)

module T = Trojan_hls
module J = T.Json
module Service = Thr_server.Service
module Trace = T.Trace
module Metrics = T.Metrics
module Prng = T.Prng

let now = Unix.gettimeofday

(* One timed request: its latency class and a thunk that performs it.
   [run] returns a checker that is applied after the clock stops, so
   output checks never count as request latency.  The checker yields
   the units of work completed or why the output was wrong. *)
type request = {
  cls : string;
  run : unit -> unit -> (int, string) result;
}

(* A workload prepared for one seed: the request list of a pass, built
   against fresh program state under a scratch directory, and the
   checks that need a whole pass (e.g. how many hits came from disk). *)
type pass = { requests : request list; after : unit -> (unit, string) result }

(* ----------------------------- files ----------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun root tag ->
    incr n;
    let d = Filename.concat root (Printf.sprintf "%s-%d" tag !n) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

(* --------------------------- json helpers -------------------------- *)

let mem_obj name j = Option.value ~default:J.Null (J.member name j)

let expect what ~got ~want =
  if got = want then Ok ()
  else Error (Printf.sprintf "%s: got %s, want %s" what got want)

let opt_int = function Some i -> string_of_int i | None -> "none"

let ( let* ) = Result.bind

(* --------------------------- renumbering --------------------------- *)

(* An isomorphic copy of a DFG document: inputs declared in a shuffled
   order and operations emitted in a random topological order, renamed to
   the running count the parser requires.  The service's canonical key
   must map it to the same cache entry. *)
let renumber prng text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let header = List.hd lines in
  let inputs =
    List.filter (fun l -> String.length l > 6 && String.sub l 0 6 = "input ") lines
    |> Array.of_list
  in
  let ops =
    List.filter (fun l -> String.length l > 1 && l.[0] = 'n' && String.contains l '=') lines
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | _ :: "=" :: kind :: operands -> (kind, Array.of_list operands)
           | _ -> failwith ("renumber: unexpected line " ^ l))
    |> Array.of_list
  in
  let node_ref s =
    let n = String.length s in
    if n > 1 && s.[0] = 'n'
       && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub s 1 (n - 1))
    then Some (int_of_string (String.sub s 1 (n - 1)))
    else None
  in
  let n = Array.length ops in
  let pending = Array.make n 0 in
  let users = Array.make n [] in
  Array.iteri
    (fun i (_, operands) ->
      Array.iter
        (fun o ->
          match node_ref o with
          | Some d ->
              pending.(i) <- pending.(i) + 1;
              users.(d) <- i :: users.(d)
          | None -> ())
        operands)
    ops;
  let ready = ref (List.filter (fun i -> pending.(i) = 0) (List.init n Fun.id)) in
  let order = Array.make n 0 and rename = Array.make n 0 in
  for k = 0 to n - 1 do
    let r = Array.of_list !ready in
    let i = r.(Prng.int prng (Array.length r)) in
    ready := List.filter (( <> ) i) !ready;
    order.(k) <- i;
    rename.(i) <- k;
    List.iter
      (fun u ->
        pending.(u) <- pending.(u) - 1;
        if pending.(u) = 0 then ready := u :: !ready)
      users.(i)
  done;
  Prng.shuffle prng inputs;
  let buf = Buffer.create (String.length text) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Array.iter (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') inputs;
  Array.iteri
    (fun k i ->
      let kind, operands = ops.(i) in
      let operand o =
        match node_ref o with Some d -> Printf.sprintf "n%d" rename.(d) | None -> o
      in
      Buffer.add_string buf
        (String.concat " "
           (Printf.sprintf "n%d" k :: "=" :: kind
           :: List.map operand (Array.to_list operands)));
      Buffer.add_char buf '\n')
    order;
  Buffer.contents buf

(* Side tallies the per-layer metrics need, read from checked outputs:
   prover candidates of lint responses, co-simulated and fault-simulated
   vectors, and, summed over mutant jobs, the lanes one mutant batch word
   uses (clean lane + one per mutant). *)
let prove_candidates = ref 0

let sim_vectors = ref 0

let mutant_vectors = ref 0

let mutant_jobs = ref 0

let mutant_lanes = ref 0

(* ============================== solve ============================== *)

(* The paper's Table 3 (detection only) and Table 4 (detection and
   recovery) instances, with the area budgets `bench` derives from the
   eight-vendor catalogue (2.5x / 1.5x the area lower bound), and the
   optimum licence cost recorded for each in BENCH_solvers.json.  [ilp]
   marks the rows whose literal ILP `bench -- json` solves.  The
   budget-bound elliptic lambda=24 row of Table 4 is left out: its time
   measures a node budget, not the solver. *)
type row = {
  mode : T.Spec.mode;
  bench : string;
  l_det : int;
  l_rec : int;
  frac : float;
  optimum : int;
  ilp : bool;
}

let rows =
  let d3 bench l_det frac optimum ilp =
    { mode = T.Spec.Detection_only; bench; l_det; l_rec = 0; frac; optimum; ilp }
  in
  let d4 bench l_det l_rec frac optimum ilp =
    { mode = T.Spec.Detection_and_recovery; bench; l_det; l_rec; frac; optimum; ilp }
  in
  [
    d3 "polynom" 3 2.5 2480 true;
    d3 "polynom" 6 1.5 2480 true;
    d3 "diff2" 4 2.5 3820 true;
    d3 "diff2" 14 1.5 3820 false;
    d3 "dtmf" 4 2.5 3470 true;
    d3 "dtmf" 8 1.5 3470 false;
    d3 "mof2" 7 2.5 2480 false;
    d3 "mof2" 14 1.5 2480 false;
    d3 "elliptic" 8 2.5 2970 false;
    d3 "elliptic" 16 1.5 2970 false;
    d3 "fir16" 6 2.5 2970 false;
    d3 "fir16" 12 1.5 2970 false;
    d4 "polynom" 3 3 2.5 3810 true;
    d4 "polynom" 9 3 1.5 3810 false;
    d4 "diff2" 4 4 2.5 4590 false;
    d4 "diff2" 10 4 1.5 4590 false;
    d4 "dtmf" 4 4 2.5 4590 false;
    d4 "dtmf" 11 4 1.5 4590 false;
    d4 "mof2" 8 6 2.5 3810 false;
    d4 "mof2" 18 6 1.5 3810 false;
    d4 "elliptic" 8 8 2.5 3810 false;
    d4 "fir16" 7 5 2.5 3810 false;
    d4 "fir16" 11 5 1.5 3810 false;
  ]

let catalog = T.Catalog.eight_vendors

let row_area row =
  let dfg = Option.get (T.Benchmarks.find row.bench) in
  let probe =
    T.Spec.make ~mode:row.mode ~dfg ~catalog ~latency_detect:row.l_det
      ~latency_recover:(max row.l_rec 1) ~area_limit:max_int ()
  in
  let inst = T.Opt_instance.make probe in
  let allowed = Array.make_matrix inst.T.Opt_instance.n_vendors 3 true in
  match T.Csp.area_lower_bound inst ~allowed with
  | Some lb -> int_of_float (float_of_int lb *. row.frac)
  | None -> invalid_arg "row_area: catalogue misses a type"

let mode_name = function
  | T.Spec.Detection_only -> "detection"
  | T.Spec.Detection_and_recovery -> "detection_and_recovery"

(* The spec the service builds for [text]: used to re-validate the design
   it answers with. *)
let row_spec row ~area text =
  match T.Dfg_parse.of_string text with
  | Error _ -> invalid_arg "row_spec: unparsable DFG"
  | Ok dfg ->
      T.Spec.make ~mode:row.mode ~dfg ~catalog ~latency_detect:row.l_det
        ~latency_recover:(max row.l_rec 1) ~area_limit:area ()

let solve_line row ~area ~solver text =
  J.to_string
    (J.Obj
       ([ ("op", J.String "solve"); ("dfg", J.String text);
          ("catalog", J.String "eight"); ("mode", J.String (mode_name row.mode));
          ("latency_detect", J.Int row.l_det);
          ("latency_recover", J.Int (max row.l_rec 1)); ("area", J.Int area) ]
       @ if solver = "search" then [] else [ ("solver", J.String solver) ]))

(* Rebuild the design a solve response describes, over the request's own
   numbering, and check it independently: every constraint of the spec
   holds and its licence cost is the recorded optimum.  On a cache hit
   this is what shows the cached design was remapped correctly. *)
let check_design spec result ~optimum =
  let vendor_of_name =
    List.map (fun v -> (T.Vendor.name v, v)) (T.Catalog.vendors catalog)
  in
  let count = T.Copy.count spec in
  let steps = Array.make count (-1) in
  let vendors = Array.make count (List.hd (T.Catalog.vendors catalog)) in
  let entries =
    Option.value ~default:[] (Option.bind (J.member "schedule" result) J.to_list)
  in
  let placed =
    List.fold_left
      (fun n e ->
        let phase =
          match J.mem_str "phase" e with
          | Some "NC" -> Some T.Copy.NC
          | Some "RC" -> Some T.Copy.RC
          | Some "RV" -> Some T.Copy.RV
          | _ -> None
        in
        match
          (J.mem_int "op" e, phase, J.mem_int "step" e,
           Option.bind (J.mem_str "vendor" e) (fun v -> List.assoc_opt v vendor_of_name))
        with
        | Some op, Some phase, Some step, Some v -> (
            match T.Copy.index spec { T.Copy.op; phase } with
            | idx ->
                steps.(idx) <- step;
                vendors.(idx) <- v;
                n + 1
            | exception Invalid_argument _ -> n)
        | _ -> n)
      0 entries
  in
  if placed <> count then
    Error (Printf.sprintf "design covers %d of %d copies" placed count)
  else
    let design =
      T.Design.make spec (T.Schedule.make spec steps) (T.Binding.make spec vendors)
    in
    match T.Design.validate design with
    | v :: _ -> Error ("design invalid: " ^ v)
    | [] ->
        expect "design cost"
          ~got:(string_of_int (T.Design.cost design))
          ~want:(string_of_int optimum)

let check_solve ~spec ~row ~hit response =
  let* () =
    expect "status" ~got:(Option.value ~default:"?" (J.mem_str "status" response))
      ~want:"ok"
  in
  let* () =
    expect "cache_hit"
      ~got:(string_of_bool (J.mem_bool "cache_hit" response = Some true))
      ~want:(string_of_bool hit)
  in
  let result = mem_obj "result" response in
  let* () =
    expect "quality" ~got:(Option.value ~default:"?" (J.mem_str "quality" result))
      ~want:"optimal"
  in
  let* () =
    expect "mc" ~got:(opt_int (J.mem_int "mc" result)) ~want:(string_of_int row.optimum)
  in
  check_design spec result ~optimum:row.optimum

(* Per pass, on a fresh service A (memory tier) whose persist_dir is the
   pass's own scratch directory:
     miss   every row once, licence search
     ilp    every ILP row once, "solver":"ilp" (the literal ILP)
     hit    [hit_groups] samples per row, each [group_size] renumbered
            resubmissions sent back to back
   then, on [group_size] more fresh services B1..Bn over the same
   persist_dir:
     disk   one sample per row: a renumbered resubmission to each Bj, so
            every request of the sample is a disk hit
   A single hit takes 0.05-0.4 ms, so hits are timed in groups: no hit
   sample is one lone sub-millisecond call.  Each group of samples runs
   in a seeded order; the renumberings come from the seed too. *)
let hit_groups = 3

let group_size = 6

let solve_workload ~seed =
  let prng = Prng.create ~seed in
  let prepared =
    List.map
      (fun row ->
        let area = row_area row in
        let text = T.Dfg_parse.to_string (Option.get (T.Benchmarks.find row.bench)) in
        let variants () =
          List.init group_size (fun _ ->
              let t = renumber prng text in
              (solve_line row ~area ~solver:"search" t, row_spec row ~area t))
        in
        let spec = row_spec row ~area text in
        let hits = List.init hit_groups (fun _ -> variants ()) in
        let disk = variants () in
        ( row,
          (solve_line row ~area ~solver:"search" text, spec),
          (solve_line row ~area ~solver:"ilp" text, spec),
          hits, disk ))
      rows
  in
  let shuffled l =
    let a = Array.of_list l in
    Prng.shuffle prng a;
    Array.to_list a
  in
  let miss = shuffled (List.map (fun (row, m, _, _, _) -> (row, [ m ])) prepared) in
  let ilp =
    shuffled
      (List.filter_map
         (fun (row, _, i, _, _) -> if row.ilp then Some (row, [ i ]) else None)
         prepared)
  in
  let hit =
    shuffled
      (List.concat_map (fun (row, _, _, hits, _) -> List.map (fun h -> (row, h)) hits)
         prepared)
  in
  let disk = shuffled (List.map (fun (row, _, _, _, d) -> (row, d)) prepared) in
  fun ~tmp ->
    let config =
      { Service.default_config with Service.persist_dir = Some tmp; jobs = 1 }
    in
    let a = Service.create ~config () in
    let bs = List.init group_size (fun _ -> Service.create ~config ()) in
    (* one timed sample: the requests [lines] sent back to back, the i-th
       to the i-th of [services] *)
    let req cls services ~hit (row, lines) =
      {
        cls;
        run =
          (fun () ->
            let responses =
              List.map2 (fun s (line, spec) -> (Service.handle_line s line, spec))
                services lines
            in
            fun () ->
              List.fold_left
                (fun n (response, spec) ->
                  let* n = n in
                  let* () = check_solve ~spec ~row ~hit response in
                  Ok (n + 1))
                (Ok 0) responses);
      }
    in
    let requests =
      List.map (req "miss" [ a ] ~hit:false) miss
      @ List.map (req "ilp" [ a ] ~hit:false) ilp
      @ List.map (req "hit" (List.init group_size (fun _ -> a)) ~hit:true) hit
      @ List.map (req "disk" bs ~hit:true) disk
    in
    let after () =
      List.fold_left
        (fun acc b ->
          let* () = acc in
          let c = Thr_server.Cache.counters (Service.cache b) in
          expect "disk hits on a second service"
            ~got:(string_of_int c.Thr_server.Cache.disk_hits)
            ~want:(string_of_int (List.length disk)))
        (Ok ()) bs
    in
    { requests; after }

(* one untimed request of each solve kind, on throwaway state, over the
   Figure 5 example (not in the timed list) *)
let solve_warmup ~tmp =
  let row =
    { mode = T.Spec.Detection_only; bench = "motivational"; l_det = 3;
      l_rec = 0; frac = 2.5; optimum = 0; ilp = true }
  in
  let area = row_area row in
  let text = T.Dfg_parse.to_string (Option.get (T.Benchmarks.find row.bench)) in
  let config =
    { Service.default_config with Service.persist_dir = Some tmp; jobs = 1 }
  in
  let a = Service.create ~config () in
  List.iter
    (fun solver -> ignore (Service.handle_line a (solve_line row ~area ~solver text)))
    [ "search"; "ilp"; "search" ];
  let b = Service.create ~config () in
  ignore (Service.handle_line b (solve_line row ~area ~solver:"search" text))

(* =============================== lint ============================== *)

(* Every suite design x mutants none / trojan / trojan-seq / trojan-dud,
   proved to bound 8, at width 8, and at width 16 for the two smallest
   designs; one fresh service per pass, so each design's solve is a miss
   once, then a hit.  The other width-16 lints are left out to keep a
   pass near 5 s, so that a run repeats every request often enough for
   its best time to be steady (see run.py): the five larger designs at
   width 16 would add 2.7 s (diff2, dtmf, mof2) and 14 s (elliptic,
   fir16) per pass, and the 16-bit elliptic mutants exhaust the
   per-candidate prove budget, so their time measures that budget, not
   the prover.  The list and its order do not depend on the seed: lint
   has no random input, and a seeded order would only move the heap's
   high-water mark. *)
let lint_widths = [ 8; 16 ]

let lint_skipped ~name ~width =
  width = 16 && not (name = "motivational" || name = "polynom")

let lint_mutants = [ ("none", 0); ("trojan", 4); ("trojan-seq", 4); ("trojan-dud", 0) ]

let lint_line ~text ~width ~mutant =
  J.to_string
    (J.Obj
       [ ("op", J.String "lint"); ("dfg", J.String text);
         ("catalog", J.String "eight"); ("width", J.Int width);
         ("mutant", J.String mutant); ("prove", J.Int 8) ])

let check_lint ~mutant ~want_exit response =
  let* () =
    expect "status" ~got:(Option.value ~default:"?" (J.mem_str "status" response))
      ~want:"ok"
  in
  let* () =
    expect "exit_code" ~got:(opt_int (J.mem_int "exit_code" response))
      ~want:(string_of_int want_exit)
  in
  let prove = mem_obj "prove" (mem_obj "report" response) in
  prove_candidates :=
    !prove_candidates + Option.value ~default:0 (J.mem_int "candidates" prove);
  if mutant = "trojan-dud" then
    match (J.mem_int "certified" prove, J.mem_int "candidates" prove) with
    | Some c, Some n when c > 0 && c = n -> Ok ()
    | c, n ->
        Error
          (Printf.sprintf "trojan-dud: %s of %s candidates certified unbounded"
             (opt_int c) (opt_int n))
  else Ok ()

let lint_cases designs =
  List.concat_map
    (fun name ->
      let text = T.Dfg_parse.to_string (Option.get (T.Benchmarks.find name)) in
      List.concat_map
        (fun width ->
          if lint_skipped ~name ~width then []
          else
            List.map
              (fun (mutant, want_exit) -> (name, text, width, mutant, want_exit))
              lint_mutants)
        lint_widths)
    designs

let lint_workload ~seed:_ =
  let cases = lint_cases T.Benchmarks.names in
  fun ~tmp:_ ->
    let service = Service.create ~config:{ Service.default_config with jobs = 1 } () in
    let requests =
      List.map
        (fun (name, text, width, mutant, want_exit) ->
          let line = lint_line ~text ~width ~mutant in
          {
            cls = Printf.sprintf "%s/%d/%s" name width mutant;
            run =
              (fun () ->
                let response = Service.handle_line service line in
                fun () -> Result.map (fun () -> 1) (check_lint ~mutant ~want_exit response));
          })
        cases
    in
    { requests; after = (fun () -> Ok ()) }

let lint_warmup ~tmp:_ =
  let service = Service.create ~config:{ Service.default_config with jobs = 1 } () in
  List.iter
    (fun (_, text, width, mutant, _) ->
      ignore (Service.handle_line service (lint_line ~text ~width ~mutant)))
    (List.filter (fun (_, _, w, _, _) -> w = 8) (lint_cases [ "motivational" ]))

(* ============================= faultsim ============================ *)

(* The call sequence of `thls simulate NAME --runs R --vectors N
   --mutants` with jobs = 1, one job per request: Optimize.run, then
   Campaign.run, Campaign.cosim and Campaign.cosim_mutants, all drawing
   from one generator seeded per job.  Five jobs per design keep a pass
   near 4 s, so a run repeats every job several times.  Vector counts are
   sized so the mutant phase (its elaboration included) is still the
   largest phase of every job. *)
let faultsim_designs =
  [ ("motivational", 400); ("polynom", 400); ("diff2", 200); ("dtmf", 200);
    ("mof2", 200); ("elliptic", 100); ("fir16", 80) ]

let faultsim_repeats = 5

let faultsim_runs = 20

let faultsim_spec name =
  let dfg = Option.get (T.Benchmarks.find name) in
  T.Spec.make ~mode:T.Spec.Detection_and_recovery ~dfg ~catalog
    ~latency_detect:(T.Dfg.critical_path dfg + 1)
    ~area_limit:(10 * 7000 * T.Dfg.n_ops dfg) ()

let faultsim_job ~name ~vectors ~seed () =
  let spec = faultsim_spec name in
  match T.Optimize.run ~jobs:1 spec with
  | Error _ -> fun () -> Error (name ^ ": no design")
  | Ok { T.Optimize.design; _ } ->
      let prng = Prng.create ~seed in
      let config = { T.Campaign.default_config with T.Campaign.n_runs = faultsim_runs } in
      let campaign =
        Trace.with_span "bench.campaign" (fun () ->
            T.Campaign.run ~config ~jobs:1 ~prng design)
      in
      let cosim =
        Trace.with_span "bench.cosim" (fun () ->
            T.Campaign.cosim ~config ~jobs:1 ~prng ~vectors design)
      in
      let report =
        Trace.with_span "bench.mutants" (fun () ->
            T.Campaign.cosim_mutants ~config ~prng ~vectors design)
      in
      fun () ->
        if campaign.T.Campaign.runs <> faultsim_runs then
          Error (name ^ ": campaign ran short")
        else if not (T.Campaign.cosim_ok cosim) then
          Error (name ^ ": cosim disagrees with the behavioural model")
        else if cosim.T.Campaign.cosim_vectors <> vectors then
          Error (name ^ ": cosim vector count")
        else if not (T.Campaign.mutant_report_ok report) then
          Error (name ^ ": clean lane diverged, a mutant escaped or the decoy fired")
        else begin
          sim_vectors :=
            !sim_vectors + cosim.T.Campaign.cosim_vectors + report.T.Campaign.mr_vectors;
          mutant_vectors := !mutant_vectors + report.T.Campaign.mr_vectors;
          mutant_jobs := !mutant_jobs + 1;
          mutant_lanes := !mutant_lanes + List.length report.T.Campaign.mr_mutants + 1;
          Ok (cosim.T.Campaign.cosim_vectors + report.T.Campaign.mr_vectors)
        end

(* The seed drives each job's generator only; the job order is fixed, as
   a seeded order would only move the heap's high-water mark. *)
let faultsim_workload ~seed =
  let prng = Prng.create ~seed in
  let jobs =
    List.concat
      (List.init faultsim_repeats (fun _ ->
           List.map
             (fun (name, vectors) -> (name, vectors, Prng.int prng 0x3FFFFFFF))
             faultsim_designs))
  in
  fun ~tmp:_ ->
    let requests =
      List.map
        (fun (name, vectors, seed) -> { cls = name; run = faultsim_job ~name ~vectors ~seed })
        jobs
    in
    { requests; after = (fun () -> Ok ()) }

let faultsim_warmup ~tmp:_ =
  let _unchecked = faultsim_job ~name:"motivational" ~vectors:200 ~seed:1 () in
  ()

(* ============================ measurement ========================== *)

(* [pass_s]: how long one pass takes on the reference machine (a 2-vCPU
   x86-64 KVM guest, Xeon at 2.1 GHz base), which turns --seconds into a
   pass count *)
type workload = {
  prepare : seed:int -> tmp:string -> pass;
  warmup : tmp:string -> unit;
  pass_s : float;
}

let workloads =
  [ ("solve", { prepare = solve_workload; warmup = solve_warmup; pass_s = 1.8 });
    ("lint", { prepare = lint_workload; warmup = lint_warmup; pass_s = 5.0 });
    ("faultsim", { prepare = faultsim_workload; warmup = faultsim_warmup; pass_s = 4.0 }) ]

(* every request is repeated at least this often, so its best time
   comes from more than one moment of the run *)
let min_passes = 3

(* Set-up: everything before the first timed request.  It generates the
   request list from the seed, runs one untimed warm-up request of each
   kind on throwaway state, and builds the fresh program state of the
   first pass.  Returns that pass and the builder of later ones. *)
let setup w ~seed ~tmp =
  let build = w.prepare ~seed in
  w.warmup ~tmp:(fresh_dir tmp "warmup");
  (build ~tmp:(fresh_dir tmp "pass"), build)

(* Span self times: a span's duration minus the part its child spans
   cover.  Events are recorded on completion, so children precede their
   parents in the buffer; sorting by start (longest first on ties)
   restores the nesting. *)
type span_acc = { mutable self_us : float; mutable total_us : float; mutable count : int }

let spans : (string, span_acc) Hashtbl.t = Hashtbl.create 64

(* time covered by the program's own outermost spans (not bench.* ones) *)
let program_us = ref 0.0

let dropped = ref 0

let is_bench name = String.length name > 6 && String.sub name 0 6 = "bench."

let absorb_trace () =
  dropped := !dropped + Trace.dropped ();
  let events =
    match J.member "traceEvents" (Trace.export ()) with
    | Some (J.List l) -> l
    | _ -> []
  in
  Trace.clear ();
  let xs =
    List.filter_map
      (fun e ->
        match (J.mem_str "ph" e, J.mem_str "name" e, J.member "ts" e, J.member "dur" e) with
        | Some "X", Some name, Some ts, Some dur -> (
            match (J.to_float ts, J.to_float dur, J.mem_int "tid" e) with
            | Some ts, Some dur, Some tid when tid < 1000 -> Some (name, ts, dur)
            | _ -> None)
        | _ -> None)
      events
    |> List.sort (fun (_, t1, d1) (_, t2, d2) ->
           match compare t1 t2 with 0 -> compare d2 d1 | c -> c)
  in
  (* open spans: (name, end, duration, time covered by children,
     inside a program span) *)
  let stack = ref [] in
  let close (name, _, dur, children, _) =
    let acc =
      match Hashtbl.find_opt spans name with
      | Some a -> a
      | None ->
          let a = { self_us = 0.0; total_us = 0.0; count = 0 } in
          Hashtbl.replace spans name a;
          a
    in
    acc.self_us <- acc.self_us +. Float.max 0.0 (dur -. !children);
    acc.total_us <- acc.total_us +. dur;
    acc.count <- acc.count + 1
  in
  List.iter
    (fun (name, ts, dur) ->
      let rec pop () =
        match !stack with
        | ((_, fin, _, _, _) as top) :: rest when fin <= ts ->
            close top;
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      let under_program =
        match !stack with
        | (_, _, _, _, p) :: _ -> p
        | [] -> false
      in
      (match !stack with
      | (_, _, _, children, _) :: _ -> children := !children +. dur
      | [] -> ());
      if (not (is_bench name)) && not under_program then
        program_us := !program_us +. dur;
      stack := (name, ts +. dur, dur, ref 0.0, under_program || not (is_bench name)) :: !stack)
    xs;
  List.iter close !stack

type sample = { cls : string; ms : float; ok : bool; units : int; pass_no : int; idx : int }

type outcome = { mutable samples : sample list; mutable failures : string list }

(* Spans are folded into [spans] between requests once this many have
   completed (and at the end of every pass), well before the tracer's
   ring of [Trace.set_capacity] events could wrap. *)
let trace_capacity = 1 lsl 18

let absorb_threshold = trace_capacity / 4

let run_pass ~traced ~pass_no outcome pass =
  List.iteri
    (fun idx r ->
      let t0 = now () in
      let check =
        match r.run () with
        | check -> check
        | exception e ->
            let msg = Printexc.to_string e in
            fun () -> Error ("exception: " ^ msg)
      in
      let ms = (now () -. t0) *. 1000.0 in
      if traced && Trace.completed () >= absorb_threshold then absorb_trace ();
      let ok, units =
        match check () with
        | Ok units -> (true, units)
        | Error why ->
            outcome.failures <- (r.cls ^ ": " ^ why) :: outcome.failures;
            (false, 0)
      in
      outcome.samples <- { cls = r.cls; ms; ok; units; pass_no; idx } :: outcome.samples)
    pass.requests;
  if traced then absorb_trace ();
  match pass.after () with
  | Ok () -> ()
  | Error why -> outcome.failures <- ("pass: " ^ why) :: outcome.failures

let new_outcome () = { samples = []; failures = [] }

(* samples as [class, ms, ok, units of work, pass number, position in
   the pass] *)
let outcome_json o =
  [ ( "samples",
      J.List
        (List.rev_map
           (fun s ->
             J.List
               [ J.String s.cls; J.Float s.ms; J.Bool s.ok; J.Int s.units;
                 J.Int s.pass_no; J.Int s.idx ])
           o.samples) );
    ("failures", J.List (List.rev_map (fun s -> J.String s) o.failures)) ]

let run_workload ~name ~seed ~seconds ~traced ~tmp =
  let w = List.assoc name workloads in
  let t0 = now () in
  let first, build = setup w ~seed ~tmp in
  let setup_s = now () -. t0 in
  let passes = max min_passes (int_of_float (Float.round (seconds /. w.pass_s))) in
  let passes = if traced then max 1 (passes / 2) else passes in
  (* counter deltas over the traced passes only, set-up excluded *)
  let counters = Hashtbl.create 64 in
  let passes_of ~traced =
    prove_candidates := 0;
    sim_vectors := 0;
    mutant_vectors := 0;
    mutant_jobs := 0;
    mutant_lanes := 0;
    let o = new_outcome () in
    let wall = ref 0.0 in
    for pass_no = 1 to passes do
      let pass =
        if pass_no = 1 && not traced then first else build ~tmp:(fresh_dir tmp "pass")
      in
      let before = if traced then Metrics.snapshot () else [] in
      if traced then Trace.enable ();
      let t0 = now () in
      run_pass ~traced ~pass_no o pass;
      wall := !wall +. (now () -. t0);
      if traced then begin
        Trace.disable ();
        List.iter
          (fun (k, v) ->
            let v0 = Option.value ~default:0.0 (List.assoc_opt k before) in
            let acc = Option.value ~default:0.0 (Hashtbl.find_opt counters k) in
            Hashtbl.replace counters k (acc +. v -. v0))
          (Metrics.snapshot ())
      end
    done;
    ( o,
      !wall,
      [ ("prove_candidates", J.Int !prove_candidates);
        ("sim_vectors", J.Int !sim_vectors);
        ("mutant_vectors", J.Int !mutant_vectors);
        ( "lane_fill",
          J.Float
            (if !mutant_jobs = 0 then 0.0
             else
               float_of_int !mutant_lanes
               /. float_of_int (!mutant_jobs * T.Gate_packed.lanes)) ) ] )
  in
  let base, base_wall, _ = passes_of ~traced:false in
  let traced_fields =
    if not traced then []
    else begin
      Trace.set_capacity trace_capacity;
      let o, wall, tallies = passes_of ~traced:true in
      let delta =
        Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) counters []
        |> List.sort compare
      in
      [ ( "traced",
          J.Obj
            (outcome_json o
            @ tallies
            @ [ ("wall_s", J.Float wall);
                ("program_span_s", J.Float (!program_us /. 1e6));
                ("dropped", J.Int !dropped);
                ("counters", J.Obj delta);
                ( "spans",
                  J.Obj
                    (Hashtbl.fold
                       (fun k a acc ->
                         ( k,
                           J.Obj
                             [ ("self_s", J.Float (a.self_us /. 1e6));
                               ("total_s", J.Float (a.total_us /. 1e6));
                               ("count", J.Int a.count) ] )
                         :: acc)
                       spans []
                    |> List.sort compare) ) ]) ) ]
    end
  in
  J.Obj
    ([ ("workload", J.String name); ("seed", J.Int seed); ("passes", J.Int passes);
       ("setup_s", J.Float setup_s); ("wall_s", J.Float base_wall);
       ("ocaml", J.String Sys.ocaml_version) ]
    @ outcome_json base @ traced_fields)

(* A fixed loop whose rate tells a slow machine from a slow change: run
   before and after every benchmark run.  Each step hashes and makes one
   dependent load from an 8 MiB table, so the score drops when other
   tenants of the host contend for cache and memory, not only for ALUs. *)
let calibrate () =
  let n = 1 lsl 20 and steps = 4_000_000 in
  let table = Array.init n (fun i -> Prng.mix63 i land (n - 1)) in
  let t0 = now () in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to steps do
    j := table.(!j lxor (i land 1023));
    acc := Prng.mix63 (!acc + !j)
  done;
  let s = now () -. t0 in
  Printf.printf "{\"calibration_mops\": %.3f, \"check\": %d}\n"
    (float_of_int steps /. s /. 1e6) (!acc land 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "calibrate" :: _ -> calibrate ()
  | _ :: ("run" | "setup" as mode) :: args ->
      let rec opts acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | a :: _ -> failwith ("unexpected argument " ^ a)
      in
      let o = opts [] args in
      let get k =
        match List.assoc_opt k o with
        | Some v -> v
        | None -> failwith ("missing --" ^ k)
      in
      let name = get "workload" in
      if not (List.mem_assoc name workloads) then failwith ("unknown workload " ^ name);
      let seed = int_of_string (get "seed") and tmp = get "tmp" in
      if mode = "setup" then begin
        ignore (setup (List.assoc name workloads) ~seed ~tmp);
        print_endline "ready"
      end
      else
        print_endline
          (J.to_string
             (run_workload ~name ~seed ~seconds:(float_of_string (get "seconds"))
                ~traced:(get "trace" = "1") ~tmp))
  | _ ->
      prerr_endline
        "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 --tmp DIR\n\
        \       main.exe setup --workload W --seed N --tmp DIR\n\
        \       main.exe calibrate";
      exit 2
