(* Output checks computed apart from the service: the dense evaluator
   for table workloads, [Engine.Reference] for store workloads. *)

module Store = Video_model.Store

let eps = 1e-9
let close a b = Float.abs (a -. b) <= eps

(* a served ranked list: (id, actual, max) in response order *)
type ranked = (int * float * float) list

let failf fmt = Format.kasprintf (fun s -> Error s) fmt

(* Exact agreement with the dense evaluator's top-k: same ids in the
   same order, values within [eps]. *)
let against_dense ~expected ~max (served : ranked) =
  if List.length expected <> List.length served then
    failf "%d results, expected %d" (List.length served) (List.length expected)
  else
    List.fold_left2
      (fun acc (eid, ev) (id, a, m) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if id <> eid then failf "id %d where %d was expected" id eid
            else if not (close a ev) then
              failf "id %d: sim %g, expected %g" id a ev
            else if not (close m max) then
              failf "id %d: max %g, expected %g" id m max
            else Ok ())
      (Ok ()) expected served

(* --- per-video reference over a store ----------------------------------- *)

(* Objects, attributes and relationships of the benchmark's stores belong
   to their own video and temporal operators never cross a video, so a
   segment's similarity over the whole store equals its similarity over
   the one-video store that holds it.  Evaluating per video keeps the
   reference's existential domain to the video's own objects. *)
type videos = {
  stores : Store.t array;
  contexts : (int * int, Engine.Context.t) Hashtbl.t;  (* (video, level) *)
}

let of_videos vs =
  { stores = Array.of_list (List.map Store.of_video vs); contexts = Hashtbl.create 64 }

let context t ~video ~level =
  match Hashtbl.find_opt t.contexts (video, level) with
  | Some c -> c
  | None ->
      let c = Engine.Context.of_store ~level t.stores.(video) in
      Hashtbl.add t.contexts (video, level) c;
      c

let count_at t ~level =
  Array.fold_left (fun acc s -> acc + Store.count_at s ~level) 0 t.stores

(* global id at [level] → (video, local id) *)
let locate t ~level id =
  let rec go v base =
    if v >= Array.length t.stores then invalid_arg "Check.locate: id out of range"
    else
      let n = Store.count_at t.stores.(v) ~level in
      if id <= base + n then (v, id - base) else go (v + 1) (base + n)
  in
  go 0 0

let reference_at t ~level f id =
  let video, local = locate t ~level id in
  let ctx = context t ~video ~level in
  let span = Simlist.Extent.containing (Engine.Context.extents ctx) local in
  Engine.Reference.similarity_at ctx ~span ~pos:local f

let max_similarity t ~level f =
  Engine.Reference.max_similarity (context t ~video:0 ~level) f

(* Every served segment's similarity agrees with the reference, lies in
   [0, m], and the list is in (value desc, id asc) order; none of the
   [outside] ids (segments not served) beats the k-th value — or, when
   fewer than [k] came back, has any similarity at all. *)
let ranked t ~level ~k ~outside f (served : ranked) =
  let m = max_similarity t ~level f in
  let rec ordered = function
    | (i, a, _) :: ((j, b, _) :: _ as rest) ->
        if a < b || (a = b && i >= j) then failf "ids %d, %d out of order" i j
        else ordered rest
    | _ -> Ok ()
  in
  let each (id, a, mx) =
    let r = Simlist.Sim.actual (reference_at t ~level f id) in
    if not (close mx m) then failf "id %d: max %g, reference %g" id mx m
    else if a < 0. || a > m +. eps then failf "id %d: sim %g outside [0, %g]" id a m
    else if not (close a r) then failf "id %d: sim %g, reference %g" id a r
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = if List.length served > k then failf "%d results for k = %d" (List.length served) k else Ok () in
  let* () = ordered served in
  let* () = List.fold_left (fun acc r -> Result.bind acc (fun () -> each r)) (Ok ()) served in
  let bar =
    if List.length served < k then 0.
    else match List.rev served with (_, a, _) :: _ -> a | [] -> 0.
  in
  List.fold_left
    (fun acc id ->
      let* () = acc in
      if List.exists (fun (i, _, _) -> i = id) served then Ok ()
      else
        let r = Simlist.Sim.actual (reference_at t ~level f id) in
        if r > bar +. eps then
          failf "unserved id %d scores %g above the k-th value %g" id r bar
        else Ok ())
    (Ok ()) outside
