module Netlist = Thr_gates.Netlist
module Packed = Thr_gates.Packed
module Prng = Thr_util.Prng
module Dpool = Thr_util.Dpool

(* Calibrated between the two populations this repo elaborates: a
   full-width trigger condition (>= 32 specified pattern bits) scores
   <= 2^-32 ~ 2.3e-10, and a set-only trigger latch fed by it (Fig. 3)
   accumulates to ~(iters/2) * 2^-32 ~ 3e-9, while a clean design's
   rarest logic — wide equality comparators and time-multiplexed
   arithmetic cones — stays above ~3e-7 under the select-conditioned
   model below. *)
let default_threshold = 1e-8

let default_iters = 24

(* Plain independence scoring has a fatal blind spot on time-multiplexed
   datapaths: every gate in a shared core's cone is gated by the same
   step-select net (operand muxes [mux sel 0 x]), and treating those
   gates as independent multiplies the select's probability back in at
   every meet — a 16-bit multiplier's carry chain compounds [p(sel)^k]
   and lands below any trigger threshold.  To kill that false-positive
   class each net carries, besides its probability, at most one
   {e conditioning literal}: a [(net, polarity, residual)] triple
   meaning "this net computes [lit AND x] where [P(x) = residual]".
   When two nets conditioned on the same literal meet at a gate, the
   literal's probability is paid once and only the residuals combine;
   different or absent literals fall back to independence.  A net with
   no stored tag acts as its own literal (a NOT gate as its operand's
   negative literal), which also buys absorption ([a OR (a AND x) = a])
   for free.

   The propagation runs on a compiled form of the netlist: flat int
   arrays of gate kind and operands, decoded once per call, and the
   tags held unboxed in three arrays ([lit], -1 for no stored tag;
   [pos]; [res]), so evaluating a gate allocates nothing. *)

(* gate kinds; inputs, constants and registers are sources that no
   sweep re-evaluates *)
let k_src = -1
let k_not = 0
let k_and = 1
let k_or = 2
let k_xor = 3
let k_mux = 4

type state = {
  kind : int array;
  neg : bool array;  (* NAND / NOR: complement the AND / OR, drop the tag *)
  amode : int array;
      (* operand a read as a bare literal of polarity 0 / 1 (a mux with a
         constant arm), or -1 for its descriptor *)
  opa : int array;  (* first operand; a mux's [t0] *)
  opb : int array;  (* second operand (-1 for NOT); a mux's [t1] *)
  sel : int array;  (* general mux select, -1 otherwise *)
  self_lit : int array;  (* the literal a net with no stored tag stands for *)
  self_pos : bool array;
  p : float array;
  lit : int array;
  pos : bool array;
  res : float array;
}

let[@inline] clamp v = Float.max 0.0 (Float.min 1.0 v)

let[@inline] plit st l q = if q then st.p.(l) else 1.0 -. st.p.(l)

let[@inline] set_tag st i l q r =
  st.lit.(i) <- l;
  st.pos.(i) <- q;
  st.res.(i) <- r

(* One gate: the operands' descriptors (stored tag, else the net as its
   own literal), then the AND / OR / XOR / MUX combination rules. *)
let eval st i =
  let p = st.p and lit = st.lit in
  let a = st.opa.(i) in
  let k = st.kind.(i) in
  if k = k_not then p.(i) <- clamp (1.0 -. p.(a))
  else begin
    let m = st.amode.(i) in
    let ta = if m < 0 then lit.(a) else -1 in
    let la = if ta >= 0 then ta else if m < 0 then st.self_lit.(a) else a in
    let qa =
      if ta >= 0 then st.pos.(a) else if m < 0 then st.self_pos.(a) else m = 1
    in
    let ra = if ta >= 0 then st.res.(a) else 1.0 in
    let pa = if m = 0 then 1.0 -. p.(a) else p.(a) in
    let b = st.opb.(i) in
    let tb = lit.(b) in
    let lb = if tb >= 0 then tb else st.self_lit.(b) in
    let qb = if tb >= 0 then st.pos.(b) else st.self_pos.(b) in
    let rb = if tb >= 0 then st.res.(b) else 1.0 in
    let pb = p.(b) in
    let same = la = lb in
    let v =
      if k = k_and then
        if same && qa = qb then begin
          let r = ra *. rb in
          set_tag st i la qa r;
          plit st la qa *. r
        end
        else if same then begin
          (* l AND x, NOT l AND y: disjoint *)
          lit.(i) <- -1;
          0.0
        end
        else begin
          if plit st la qa <= plit st lb qb then set_tag st i la qa (ra *. pb)
          else set_tag st i lb qb (rb *. pa);
          pa *. pb
        end
      else if k = k_or then
        if same && qa = qb then begin
          let r = ra +. rb -. (ra *. rb) in
          set_tag st i la qa r;
          plit st la qa *. r
        end
        else begin
          lit.(i) <- -1;
          if same then
            (* disjoint supports: OR is a sum *)
            (plit st la qa *. ra) +. (plit st lb qb *. rb)
          else 1.0 -. ((1.0 -. pa) *. (1.0 -. pb))
        end
      else if k = k_xor then
        if same && qa = qb then begin
          let r = ra +. rb -. (2.0 *. ra *. rb) in
          set_tag st i la qa r;
          plit st la qa *. r
        end
        else begin
          lit.(i) <- -1;
          if same then (plit st la qa *. ra) +. (plit st lb qb *. rb)
          else (pa *. (1.0 -. pb)) +. (pb *. (1.0 -. pa))
        end
      else begin
        (* general mux: a = t0, b = t1 *)
        let s = st.sel.(i) in
        let ps = p.(s) in
        if same && qa = qb then
          if la = s then
            (* mux(s, s&x, s&y) collapses to one arm *)
            if qa then begin
              set_tag st i lb qb rb;
              ps *. rb
            end
            else begin
              set_tag st i la qa ra;
              (1.0 -. ps) *. ra
            end
          else begin
            let r = ((1.0 -. ps) *. ra) +. (ps *. rb) in
            set_tag st i la qa r;
            plit st la qa *. r
          end
        else begin
          lit.(i) <- -1;
          ((1.0 -. ps) *. pa) +. (ps *. pb)
        end
      end
    in
    if st.neg.(i) then begin
      p.(i) <- clamp (1.0 -. v);
      lit.(i) <- -1
    end
    else p.(i) <- clamp v
  end

(* Hold-mux registers [q' = mux en q new]: the register samples [new]
   only on cycles where [en] fires, so its steady-state target is
   [P(new | en)], not the unconditional [p new].  That distinction is
   the sequential half of the time-multiplexing blind spot: a result
   register's data is gated by the same step-select chain as its load
   enable ("core busy" ORs, operand-mux selects), so the unconditional
   probability is select-crushed by several orders of magnitude and
   every downstream carry chain inherits the error.  No single
   conditioning literal survives that whole path (OR-absorption plus
   two mux levels), so [P(new | en)] is computed honestly: re-evaluate
   the combinational logic with [en] pinned and read [new] there, once
   per key [(en, polarity)] per round, at the key's first requesting
   register.

   Registers update in place, in evaluation order, so that conditional
   evaluation sees the registers already updated this round.  Only the
   nets it can change are re-evaluated: its {e cone}, the combinational
   nets in the fan-in of the key's [new] arms that are also in the
   fanout of [en] or of a register updated before the key's first
   requester.  Every other net would recompute to the value the round's
   full sweep left, so the result is the same as re-sweeping the whole
   netlist.  The cone's entries (and [en]'s) are saved in shared scratch
   arrays, evaluated in place and restored. *)

(* registers by update rank, and the hold-mux keys *)
type regs = {
  dffs : int array;  (* register net *)
  data : int array;  (* its data net *)
  key : int array;  (* hold-mux key, -1 for a plain register *)
  arm : int array;  (* the [new] arm the key's conditional reads *)
  rank : int array;  (* per net: update rank, -1 if not a register *)
  key_en : int array;
  key_pos : bool array;
  key_first : int array;  (* rank of the key's first requester *)
  req_start : int array;  (* the key's requesters (ranks, in order), as CSR *)
  req : int array;
}

(* Decode the netlist: the gate program in [st] (with constants and
   power-on register values in [st.p]), the gates in evaluation order,
   and the registers with their keys numbered in order of first
   requester. *)
let compile nl =
  let n = Netlist.n_nets nl in
  let st =
    {
      kind = Array.make n k_src;
      neg = Array.make n false;
      amode = Array.make n (-1);
      opa = Array.make n (-1);
      opb = Array.make n (-1);
      sel = Array.make n (-1);
      self_lit = Array.init n Fun.id;
      self_pos = Array.make n true;
      p = Array.make n 0.5;
      lit = Array.make n (-1);
      pos = Array.make n false;
      res = Array.make n 1.0;
    }
  in
  let ix = Netlist.net_index in
  let gates = Array.make (Netlist.n_gates nl) 0 in
  let n_gates = ref 0 in
  let gate i k ?(neg = false) ?(amode = -1) ?(sel = -1) a b =
    st.kind.(i) <- k;
    st.neg.(i) <- neg;
    st.amode.(i) <- amode;
    st.opa.(i) <- a;
    st.opb.(i) <- b;
    st.sel.(i) <- sel;
    gates.(!n_gates) <- i;
    incr n_gates
  in
  let n_dffs = Netlist.n_dffs nl in
  let dffs = Array.make n_dffs 0 and data = Array.make n_dffs 0 in
  let key = Array.make n_dffs (-1) and arm = Array.make n_dffs (-1) in
  let rank = Array.make n (-1) in
  let n_seen = ref 0 in
  let keys = Hashtbl.create 16 in
  let firsts = ref [] in
  let hold r en pos a =
    key.(r) <-
      (match Hashtbl.find_opt keys (en, pos) with
      | Some k -> k
      | None ->
          let k = Hashtbl.length keys in
          Hashtbl.add keys (en, pos) k;
          firsts := (en, pos, r) :: !firsts;
          k);
    arm.(r) <- a
  in
  Array.iter
    (fun net ->
      let i = ix net in
      match Netlist.driver nl net with
      | Netlist.D_input _ -> ()
      | Netlist.D_const b -> st.p.(i) <- (if b then 1.0 else 0.0)
      | Netlist.D_dff k -> (
          let r = !n_seen in
          incr n_seen;
          (* power-on register state *)
          st.p.(i) <- (if Netlist.dff_init nl k then 1.0 else 0.0);
          rank.(i) <- r;
          dffs.(r) <- i;
          let d = Netlist.dff_data nl k in
          data.(r) <- ix d;
          match Netlist.driver nl d with
          | Netlist.D_mux (s, t0, t1) when ix t0 = i -> hold r (ix s) true (ix t1)
          | Netlist.D_mux (s, t0, t1) when ix t1 = i -> hold r (ix s) false (ix t0)
          | _ -> ())
      | Netlist.D_not a ->
          st.self_lit.(i) <- ix a;
          st.self_pos.(i) <- false;
          gate i k_not (ix a) (-1)
      | Netlist.D_and (a, b) -> gate i k_and (ix a) (ix b)
      | Netlist.D_or (a, b) -> gate i k_or (ix a) (ix b)
      | Netlist.D_nand (a, b) -> gate i k_and ~neg:true (ix a) (ix b)
      | Netlist.D_nor (a, b) -> gate i k_or ~neg:true (ix a) (ix b)
      | Netlist.D_xor (a, b) -> gate i k_xor (ix a) (ix b)
      | Netlist.D_mux (s, t0, t1) -> (
          (* a constant arm makes the mux an AND / OR with the select as
             a bare literal *)
          match (Netlist.driver nl t0, Netlist.driver nl t1) with
          | Netlist.D_const false, _ -> gate i k_and ~amode:1 (ix s) (ix t1)
          | _, Netlist.D_const false -> gate i k_and ~amode:0 (ix s) (ix t0)
          | Netlist.D_const true, _ -> gate i k_or ~amode:0 (ix s) (ix t1)
          | _, Netlist.D_const true -> gate i k_or ~amode:1 (ix s) (ix t0)
          | _ -> gate i k_mux ~sel:(ix s) (ix t0) (ix t1)))
    (Netlist.nets_in_order nl);
  let firsts = Array.of_list (List.rev !firsts) in
  let n_keys = Array.length firsts in
  let req_start = Array.make (n_keys + 1) 0 in
  Array.iter (fun k -> if k >= 0 then req_start.(k + 1) <- req_start.(k + 1) + 1) key;
  for k = 0 to n_keys - 1 do
    req_start.(k + 1) <- req_start.(k + 1) + req_start.(k)
  done;
  let req = Array.make req_start.(n_keys) 0 in
  let fill = Array.sub req_start 0 n_keys in
  Array.iteri
    (fun r k ->
      if k >= 0 then begin
        req.(fill.(k)) <- r;
        fill.(k) <- fill.(k) + 1
      end)
    key;
  let regs =
    {
      dffs;
      data;
      key;
      arm;
      rank;
      key_en = Array.map (fun (en, _, _) -> en) firsts;
      key_pos = Array.map (fun (_, pos, _) -> pos) firsts;
      key_first = Array.map (fun (_, _, r) -> r) firsts;
      req_start;
      req;
    }
  in
  (st, Array.sub gates 0 !n_gates, regs)

(* Every key's cone, as CSR [(cone_start, cone)], operands first.  A
   post-order walk of the arms' combinational fan-in (not through [en])
   lists the fan-in operands-first; one pass over that list keeps the
   gates that read [en], an earlier-updated register or a kept gate.
   [mark] holds [2 key] once a gate is visited for [key] and
   [2 key + 1] once it is kept. *)
let cones st ~n_gates regs =
  let n_keys = Array.length regs.key_en in
  let mark = Array.make (Array.length st.p) (-1) in
  let stack = Array.make (max 1 n_gates) 0 in
  let child = Array.make (max 1 n_gates) 0 in
  let walk = Array.make (max 1 n_gates) 0 in
  let cone_start = Array.make (n_keys + 1) 0 in
  let cone = ref (Array.make (max 16 n_gates) 0) in
  let cone_len = ref 0 in
  let operand i c =
    if c = 0 then st.opa.(i) else if c = 1 then st.opb.(i) else st.sel.(i)
  in
  for key = 0 to n_keys - 1 do
    let en = regs.key_en.(key) and first = regs.key_first.(key) in
    let visited = 2 * key and kept = (2 * key) + 1 in
    let n_walk = ref 0 and sp = ref 0 in
    let visit g =
      if g >= 0 && st.kind.(g) <> k_src && g <> en && mark.(g) < visited
      then begin
        mark.(g) <- visited;
        stack.(!sp) <- g;
        child.(!sp) <- 0;
        incr sp
      end
    in
    for j = regs.req_start.(key) to regs.req_start.(key + 1) - 1 do
      visit regs.arm.(regs.req.(j));
      while !sp > 0 do
        let top = !sp - 1 in
        let g = stack.(top) and c = child.(top) in
        if c < 3 then begin
          child.(top) <- c + 1;
          visit (operand g c)
        end
        else begin
          sp := top;
          walk.(!n_walk) <- g;
          incr n_walk
        end
      done
    done;
    let changed o =
      o >= 0
      && (o = en
         || (regs.rank.(o) >= 0 && regs.rank.(o) < first)
         || mark.(o) = kept)
    in
    for j = 0 to !n_walk - 1 do
      let g = walk.(j) in
      if changed st.opa.(g) || changed st.opb.(g) || changed st.sel.(g) then begin
        mark.(g) <- kept;
        if !cone_len = Array.length !cone then begin
          let grown = Array.make (2 * !cone_len) 0 in
          Array.blit !cone 0 grown 0 !cone_len;
          cone := grown
        end;
        !cone.(!cone_len) <- g;
        incr cone_len
      end
    done;
    cone_start.(key + 1) <- !cone_len
  done;
  (cone_start, !cone)

let signal_probabilities ?(iters = default_iters) nl =
  let st, gates, regs = compile nl in
  let cone_start, cone = cones st ~n_gates:(Array.length gates) regs in
  (* scratch for one conditional evaluation: [en] at 0, then the cone *)
  let widest = ref 0 in
  for key = 0 to Array.length regs.key_en - 1 do
    widest := max !widest (cone_start.(key + 1) - cone_start.(key))
  done;
  let save_p = Array.make (!widest + 1) 0.0 in
  let save_lit = Array.make (!widest + 1) (-1) in
  let save_pos = Array.make (!widest + 1) false in
  let save_res = Array.make (!widest + 1) 0.0 in
  let save j i =
    save_p.(j) <- st.p.(i);
    save_lit.(j) <- st.lit.(i);
    save_pos.(j) <- st.pos.(i);
    save_res.(j) <- st.res.(i)
  in
  let restore j i =
    st.p.(i) <- save_p.(j);
    st.lit.(i) <- save_lit.(j);
    st.pos.(i) <- save_pos.(j);
    st.res.(i) <- save_res.(j)
  in
  let n_dffs = Array.length regs.dffs in
  let target = Array.make n_dffs 0.0 in
  let conditional key =
    let en = regs.key_en.(key) in
    let lo = cone_start.(key) and hi = cone_start.(key + 1) in
    save 0 en;
    for j = lo to hi - 1 do
      save (j - lo + 1) cone.(j)
    done;
    st.p.(en) <- (if regs.key_pos.(key) then 1.0 else 0.0);
    st.lit.(en) <- -1;
    for j = lo to hi - 1 do
      eval st cone.(j)
    done;
    for j = regs.req_start.(key) to regs.req_start.(key + 1) - 1 do
      let r = regs.req.(j) in
      target.(r) <- st.p.(regs.arm.(r))
    done;
    for j = lo to hi - 1 do
      restore (j - lo + 1) cone.(j)
    done;
    restore 0 en
  in
  let sweep () =
    for j = 0 to Array.length gates - 1 do
      eval st gates.(j)
    done
  in
  let p = st.p in
  for _round = 1 to iters do
    sweep ();
    (* damped register update: p' = (p + target) / 2.  Plain assignment
       oscillates on toggling state (a counter's low bit alternates 0,1);
       averaging converges it to the 0.5 a long-run observer sees. *)
    for r = 0 to n_dffs - 1 do
      let key = regs.key.(r) in
      if key >= 0 && regs.key_first.(key) = r then conditional key;
      let i = regs.dffs.(r) in
      let t = if key >= 0 then target.(r) else p.(regs.data.(r)) in
      p.(i) <- 0.5 *. (p.(i) +. t)
    done
  done;
  (* settle gate probabilities on the final register values *)
  sweep ();
  p

(* Monte-Carlo cross-check of the analytic model above: simulate random
   vectors on the multi-word strip engine and count how often each net
   is 1.  One generator per vector is split off up front (sequentially),
   each strip chunk copies its generators before drawing, and shard
   counts are plain sums — so the estimate is bit-identical for any
   [jobs] and any lane/strip packing. *)
let empirical_words = 4

let empirical ?(cycles = 8) ?(jobs = 1) ~seed ~vectors nl =
  if vectors < 1 then invalid_arg "Prob.empirical: vectors < 1";
  if cycles < 1 then invalid_arg "Prob.empirical: cycles < 1";
  Netlist.finalise nl;
  let names = Netlist.input_names nl in
  let input_tbl = Netlist.input_index nl in
  let ids = List.map (fun nm -> Hashtbl.find input_tbl nm) names in
  let nets = Netlist.nets_in_order nl in
  let n = Netlist.n_nets nl in
  let prng = Prng.create ~seed in
  let gens = Array.make vectors prng in
  for j = 0 to vectors - 1 do
    gens.(j) <- Prng.split prng
  done;
  let cap = empirical_words * Packed.lanes in
  let count_range lo hi =
    let counts = Array.make n 0 in
    let st = Packed.strip ~words:empirical_words nl in
    let j = ref lo in
    while !j < hi do
      let cnt = min cap (hi - !j) in
      let wu = (cnt + Packed.lanes - 1) / Packed.lanes in
      Packed.strip_reset st;
      let gs = Array.init cnt (fun k -> Prng.copy gens.(!j + k)) in
      for _ = 1 to cycles do
        (* inputs change every cycle, so each edge needs both settles:
           one for the comb cone under the new inputs, one after the
           latch — same count as the legacy clock, but each pass now
           carries [empirical_words] lane words of vectors *)
        List.iter
          (fun id ->
            for w = 0 to wu - 1 do
              let base = w * Packed.lanes in
              let c = min Packed.lanes (cnt - base) in
              let word = ref 0 in
              for k = 0 to c - 1 do
                if Prng.bool gs.(base + k) then word := !word lor (1 lsl k)
              done;
              Packed.strip_poke st id w !word
            done)
          ids;
        Packed.strip_settle st;
        Packed.strip_latch st;
        Packed.strip_settle st;
        Array.iter
          (fun net ->
            let i = Netlist.net_index net in
            let acc = ref 0 in
            for w = 0 to wu - 1 do
              let base = w * Packed.lanes in
              let mask = Packed.lane_mask (min Packed.lanes (cnt - base)) in
              acc :=
                !acc
                + Packed.popcount (Packed.strip_peek st net w land mask)
            done;
            counts.(i) <- counts.(i) + !acc)
          nets
      done;
      j := !j + cnt
    done;
    counts
  in
  let groups = (vectors + cap - 1) / cap in
  let counts =
    if jobs <= 1 || groups <= 1 then count_range 0 vectors
    else begin
      ignore (Packed.strip ~words:empirical_words nl);
      let shards = min groups (jobs * 2) in
      let per = (groups + shards - 1) / shards in
      let ranges =
        List.init shards (fun s ->
            let lo = s * per * cap in
            (lo, min vectors (lo + (per * cap))))
        |> List.filter (fun (lo, hi) -> lo < hi)
      in
      let partials =
        Dpool.run ~jobs (fun pool ->
            Dpool.map pool (fun (lo, hi) -> count_range lo hi) ranges)
      in
      let total = Array.make n 0 in
      List.iter
        (fun c ->
          for i = 0 to n - 1 do
            total.(i) <- total.(i) + c.(i)
          done)
        partials;
      total
    end
  in
  let samples = float_of_int (vectors * cycles) in
  Array.map (fun c -> float_of_int c /. samples) counts

let analyse ?(threshold = default_threshold) ?exclude nl =
  let p = signal_probabilities nl in
  let cv = Lint.const_values nl in
  let excluded i =
    match exclude with Some m -> m.(i) | None -> false
  in
  let findings = ref [] in
  let rarest = ref 1.0 in
  Array.iter
    (fun net ->
      let i = Netlist.net_index net in
      (* statically-constant nets are dead logic, not triggers *)
      if cv.(i) = None && not (excluded i) then begin
        let activation = Float.min p.(i) (1.0 -. p.(i)) in
        if activation < !rarest then rarest := activation;
        if activation > 0.0 && activation < threshold then
          findings :=
            Finding.make ~pass:Finding.Rare ~severity:Finding.Warning
              ~rule:"rare-net" ~net
              (Printf.sprintf
                 "%s has activation probability %.3g (threshold %.3g): \
                  trigger candidate"
                 (Finding.net_label nl net) activation threshold)
            :: !findings
      end)
    (Netlist.nets_in_order nl);
  let stats =
    Finding.make ~pass:Finding.Rare ~severity:Finding.Info ~rule:"rarest"
      (Printf.sprintf "rarest non-constant activation %.3g (threshold %.3g)"
         !rarest threshold)
  in
  (List.sort Finding.compare (stats :: !findings), p)
