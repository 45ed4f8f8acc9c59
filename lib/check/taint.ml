module Netlist = Thr_gates.Netlist

type label = int list

(* The pass runs on a compiled form of the netlist, decoded once per
   call: every gate and register as flat int arrays of its output net
   and operands, in evaluation order.  Inputs and constants are sources
   that no sweep re-evaluates.

   Labels are bitsets.  The netlist's distinct vendor ids map to dense
   slots in ascending id order, [word_bits] slots per int word and as
   many words per net as the slots need, so the fixpoint is [lor] and
   int [<>] with nothing allocated per sweep.  [analyse] reserves one
   more slot for "depends on [mismatch]": [mismatch] owns it and it
   flows forward like a vendor label, through gates and register data
   inputs, so after the fixpoint it is set on exactly the nets whose
   fan-in cone (through DFFs) contains [mismatch] — the guard relation
   a per-output cone walk would establish, for all outputs at once.
   Sorted [int list] labels are rebuilt only at the API boundary. *)

let word_bits = Sys.int_size

type compiled = {
  w : int;  (* words per label *)
  nv : int;  (* vendor slots; the [mismatch] slot, if any, is slot [nv] *)
  slot_vendor : int array;  (* slot -> vendor id, ascending *)
  m : int;  (* evaluated nets: gates and registers *)
  dst : int array;  (* per evaluated net, in evaluation order: its index *)
  opa : int array;  (* operands; a driver with fewer repeats [opa] *)
  opb : int array;
  opc : int array;
  bits : int array;  (* net [i]'s label is words [i*w .. i*w+w-1] *)
}

let[@inline] set_slot bits w i s =
  let k = (i * w) + (s / word_bits) in
  bits.(k) <- bits.(k) lor (1 lsl (s mod word_bits))

let[@inline] has_slot bits w i s =
  bits.((i * w) + (s / word_bits)) land (1 lsl (s mod word_bits)) <> 0

let compile ~vendor_of ?mismatch nl =
  let n = Netlist.n_nets nl in
  let order = Netlist.nets_in_order nl in
  (* [own] numbers each net's vendor in order of first sight (-1: none) *)
  let own = Array.make n (-1) in
  let seen = ref [] in
  Array.iter
    (fun net ->
      Option.iter
        (fun v ->
          own.(Netlist.net_index net) <-
            (match List.find_opt (fun (v', _) -> v' = v) !seen with
            | Some (_, k) -> k
            | None ->
                let k = List.length !seen in
                seen := (v, k) :: !seen;
                k))
        (vendor_of net))
    order;
  let slot_vendor = Array.of_list (List.sort compare (List.map fst !seen)) in
  let nv = Array.length slot_vendor in
  let slot = Array.make nv 0 in
  Array.iteri (fun s v -> slot.(List.assoc v !seen) <- s) slot_vendor;
  let n_slots = if mismatch = None then nv else nv + 1 in
  let w = max 1 ((n_slots + word_bits - 1) / word_bits) in
  let bits = Array.make (n * w) 0 in
  let dst = Array.make n 0 and opa = Array.make n 0 in
  let opb = Array.make n 0 and opc = Array.make n 0 in
  let m = ref 0 in
  let emit i a b c =
    dst.(!m) <- i;
    opa.(!m) <- Netlist.net_index a;
    opb.(!m) <- Netlist.net_index b;
    opc.(!m) <- Netlist.net_index c;
    incr m
  in
  Array.iter
    (fun net ->
      let i = Netlist.net_index net in
      if own.(i) >= 0 then set_slot bits w i slot.(own.(i));
      match Netlist.driver nl net with
      | Netlist.D_input _ | Netlist.D_const _ -> ()
      | Netlist.D_not a -> emit i a a a
      | Netlist.D_and (a, b)
      | Netlist.D_or (a, b)
      | Netlist.D_xor (a, b)
      | Netlist.D_nand (a, b)
      | Netlist.D_nor (a, b) ->
          emit i a b a
      | Netlist.D_mux (s, a, b) -> emit i s a b
      | Netlist.D_dff r ->
          let d = Netlist.dff_data nl r in
          emit i d d d)
    order;
  Option.iter (fun mm -> set_slot bits w (Netlist.net_index mm) nv) mismatch;
  { w; nv; slot_vendor; m = !m; dst; opa; opb; opc; bits }

(* Registers feed back combinationally computed taints, so iterate the
   sweep to a fixpoint.  Labels only grow and every sweep in evaluation
   order lengthens tainted paths by at least one register, so it
   terminates in <= n_dffs + 1 rounds. *)
let fixpoint { w; m; dst; opa; opb; opc; bits; _ } =
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to m - 1 do
      let i = dst.(k) * w and a = opa.(k) * w in
      let b = opb.(k) * w and c = opc.(k) * w in
      for j = 0 to w - 1 do
        let old = bits.(i + j) in
        let t = old lor bits.(a + j) lor bits.(b + j) lor bits.(c + j) in
        if t <> old then begin
          bits.(i + j) <- t;
          changed := true
        end
      done
    done
  done

let labels c n =
  Array.init n (fun i ->
      let l = ref [] in
      for s = c.nv - 1 downto 0 do
        if has_slot c.bits c.w i s then l := c.slot_vendor.(s) :: !l
      done;
      !l)

let propagate ~vendor_of nl =
  let c = compile ~vendor_of nl in
  fixpoint c;
  labels c (Netlist.n_nets nl)

let analyse ~vendor_of ~mismatch ?(min_vendors = 2) nl =
  let compared = Netlist.in_cone nl ~roots:[ mismatch ] () in
  let c = compile ~vendor_of ~mismatch nl in
  fixpoint c;
  let taint = labels c (Netlist.n_nets nl) in
  let get x = taint.(Netlist.net_index x) in
  let mi = Netlist.net_index mismatch in
  let findings = ref [] in
  let emit ~severity ~rule ?net detail =
    findings :=
      Finding.make ~pass:Finding.Taint ~severity ~rule ?net detail
      :: !findings
  in
  (let cmp_taint = get mismatch in
   if List.length cmp_taint < min_vendors then
     emit ~severity:Finding.Error ~rule:"comparator-diversity" ~net:mismatch
       (Printf.sprintf
          "%s combines data from %d vendor(s); Rule 1 requires at least %d"
          (Finding.net_label nl mismatch)
          (List.length cmp_taint) min_vendors));
  List.iter
    (fun (name, net) ->
      let i = Netlist.net_index net in
      if i <> mi then
        match get net with
        | [] -> ()
        | vendors ->
            let observed = compared.(i) in
            (* the comparator is in the output's own support *)
            let guarded = has_slot c.bits c.w i c.nv in
            if not (observed || guarded) then
              emit ~severity:Finding.Error ~rule:"unguarded-output" ~net
                (Printf.sprintf
                   "output %s carries data from vendor(s) %s but is neither \
                    observed nor guarded by the mismatch comparator"
                   name
                   (String.concat ","
                      (List.map string_of_int vendors))))
    (Netlist.outputs nl);
  (List.sort Finding.compare !findings, taint)
