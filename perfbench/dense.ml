(* A dense evaluator for type (1) formulas over atomic similarity
   tables, written straight from the §2.5 definitions and sharing no
   code with the engine's list algorithms: one float per segment id,
   [and] as a sum, [next] as a shift, [eventually] as a suffix maximum
   and [until] as a right-to-left corridor.  The paper-tables workload
   checks served answers against it. *)

module Ast = Htl.Ast

type t = { act : float array; (* act.(id - 1) *) max : float }

let of_sim_list ~n l =
  let act = Array.make n 0. in
  List.iter
    (fun (iv, v) ->
      for id = Simlist.Interval.lo iv to Simlist.Interval.hi iv do
        act.(id - 1) <- v
      done)
    (Simlist.Sim_list.entries l);
  { act; max = Simlist.Sim_list.max_sim l }

(* a closed atomic table has one row; its list is the atom's values *)
let of_table ~n table =
  match Simlist.Sim_table.rows table with
  | [ row ] -> of_sim_list ~n row.Simlist.Sim_table.list
  | _ -> invalid_arg "Dense.of_table: expected a closed one-row table"

let rec eval ~threshold atoms f =
  let eval = eval ~threshold atoms in
  match f with
  | Ast.Atom (Ast.Rel (name, [])) -> (
      match List.assoc_opt name atoms with
      | Some d -> d
      | None -> invalid_arg ("Dense.eval: unknown atom " ^ name))
  | Ast.And (g, h) ->
      let g = eval g and h = eval h in
      { act = Array.map2 ( +. ) g.act h.act; max = g.max +. h.max }
  | Ast.Next g ->
      let g = eval g in
      let n = Array.length g.act in
      { g with act = Array.init n (fun i -> if i + 1 < n then g.act.(i + 1) else 0.) }
  | Ast.Eventually g ->
      let g = eval g in
      let act = Array.copy g.act in
      for i = Array.length act - 2 downto 0 do
        act.(i) <- Float.max act.(i) act.(i + 1)
      done;
      { g with act }
  | Ast.Until (g, h) ->
      (* at u: the best h value reachable through a corridor of ids
         whose g fraction reaches the threshold *)
      let g = eval g and h = eval h in
      let n = Array.length h.act in
      let act = Array.copy h.act in
      let passes i =
        (if g.max = 0. then 0. else g.act.(i) /. g.max) >= threshold
      in
      for i = n - 2 downto 0 do
        if passes i then act.(i) <- Float.max act.(i) act.(i + 1)
      done;
      { act; max = h.max }
  | _ -> invalid_arg ("Dense.eval: not a type (1) table formula: " ^ Htl.Pretty.to_string f)

(* The k best ids by (value desc, id asc), positive values only — the
   ranking the service promises. *)
let top_k d ~k =
  if k <= 0 then []
  else
  let best = Array.make k (0, 0.) and filled = ref 0 in
  let better (i, v) (j, w) = v > w || (v = w && i < j) in
  Array.iteri
    (fun i v ->
      let c = (i + 1, v) in
      if v > 0. && (!filled < k || better c best.(k - 1)) then begin
        let pos = ref (min !filled (k - 1)) in
        while !pos > 0 && better c best.(!pos - 1) do
          best.(!pos) <- best.(!pos - 1);
          decr pos
        done;
        best.(!pos) <- c;
        if !filled < k then incr filled
      end)
    d.act;
  Array.to_list (Array.sub best 0 !filled)
