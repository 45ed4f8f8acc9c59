(* The original taint pass, kept verbatim as the oracle [Thr_check.Taint]
   must match exactly: the fixpoint sweeps over sorted [int list] labels,
   and the guard check walks each unobserved tainted output's fan-in
   cone with a fresh [Netlist.fold_cone]. *)

module Netlist = Thr_gates.Netlist
module Finding = Thr_check.Finding

type label = int list

let union a b =
  let rec go a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: xs, y :: ys ->
        if x < y then x :: go xs b
        else if y < x then y :: go a ys
        else x :: go xs ys
  in
  if a == b then a else go a b

let propagate ~vendor_of nl =
  let n = Netlist.n_nets nl in
  let taint = Array.make n [] in
  let order = Netlist.nets_in_order nl in
  let get x = taint.(Netlist.net_index x) in
  let changed = ref true in
  (* registers feed back combinationally computed taints, so iterate the
     topological sweep to a fixpoint; each sweep lengthens tainted paths
     by at least one register, so it terminates in <= n_dffs + 1 rounds *)
  while !changed do
    changed := false;
    Array.iter
      (fun net ->
        let i = Netlist.net_index net in
        let from_deps =
          match Netlist.driver nl net with
          | Netlist.D_input _ | Netlist.D_const _ -> []
          | Netlist.D_not a -> get a
          | Netlist.D_and (a, b)
          | Netlist.D_or (a, b)
          | Netlist.D_xor (a, b)
          | Netlist.D_nand (a, b)
          | Netlist.D_nor (a, b) ->
              union (get a) (get b)
          | Netlist.D_mux (s, a, b) -> union (get s) (union (get a) (get b))
          | Netlist.D_dff k -> get (Netlist.dff_data nl k)
        in
        let own =
          match vendor_of net with Some v -> [ v ] | None -> []
        in
        let t = union own from_deps in
        if t <> taint.(i) then begin
          taint.(i) <- t;
          changed := true
        end)
      order
  done;
  taint

let analyse ~vendor_of ~mismatch ?(min_vendors = 2) nl =
  let taint = propagate ~vendor_of nl in
  let get x = taint.(Netlist.net_index x) in
  let compared = Netlist.in_cone nl ~roots:[ mismatch ] () in
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
            let guarded =
              (* the comparator is in the output's own support *)
              Netlist.fold_cone nl ~roots:[ net ]
                (fun acc x -> acc || Netlist.net_index x = mi)
                false
            in
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
