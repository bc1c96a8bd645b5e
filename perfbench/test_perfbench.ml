(* The benchmark's own checks, checked: the dense evaluator equals
   Engine.Reference on small random table corpora, and the per-video
   reference check accepts the engine's answers over a whole store and
   rejects a corrupted one. *)

open Perfbench_lib
module Rng = Workload.Rng

let small_tables seed =
  let rng = Rng.make seed in
  let n = 40 + Rng.int rng 40 in
  let tables =
    List.init 4 (fun i ->
        ( Corpus.atom_name i,
          Workload.Synthetic.atomic_table rng ~n ~selectivity:0.3 ~mean_run:3. () ))
  in
  (n, tables, rng)

let rec random_tree rng ~depth =
  let open Htl.Ast in
  if depth <= 0 then Corpus.patom (Rng.int rng 4)
  else
    let sub () = random_tree rng ~depth:(depth - 1) in
    match Rng.int rng 4 with
    | 0 -> And (sub (), sub ())
    | 1 -> Until (sub (), sub ())
    | 2 -> Next (sub ())
    | _ -> Eventually (sub ())

let dense_matches_reference () =
  for seed = 1 to 30 do
    let n, tables, rng = small_tables seed in
    let ctx = Engine.Context.of_tables ~n tables in
    let atoms = List.map (fun (name, t) -> (name, Dense.of_table ~n t)) tables in
    for _ = 1 to 10 do
      let f = random_tree rng ~depth:(Rng.int rng 4) in
      let d = Dense.eval ~threshold:ctx.Engine.Context.threshold atoms f in
      let reference = Engine.Reference.similarity_over_level ctx f in
      let name = Htl.Pretty.to_string f in
      Alcotest.(check (float 1e-9)) (name ^ " max") (Engine.Reference.max_similarity ctx f) d.max;
      Array.iteri
        (fun i s ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s at %d" name (i + 1))
            (Simlist.Sim.actual s) d.act.(i))
        reference;
      (* and the ranking the benchmark compares against is the engine's *)
      let engine = Engine.Topk.top_k (Engine.Query.run ctx f) ~k:10 in
      Alcotest.(check (list (pair int (float 1e-9))))
        (name ^ " top-k")
        (List.map (fun (id, s) -> (id, Simlist.Sim.actual s)) engine)
        (Dense.top_k d ~k:10)
    done
  done

let small_shape = { Corpus.videos = 4; scenes = 2; shots = 10 }

let store_check_accepts_engine () =
  for seed = 1 to 6 do
    let videos = Corpus.videos ~seed small_shape in
    let t = Check.of_videos videos in
    let store = Video_model.Store.create videos in
    List.iter
      (fun (level, f) ->
        let level = Option.value ~default:3 level in
        let ctx =
          Engine.Context.of_store ~level store
          |> fun c ->
          Engine.Context.with_level c ~level
            ~extents:(Video_model.Store.extents_at store ~level)
        in
        let served =
          List.map
            (fun (id, s) -> (id, Simlist.Sim.actual s, Simlist.Sim.max_sim s))
            (Engine.Topk.top_k (Engine.Query.run ctx f) ~k:10)
        in
        let all = List.init (Check.count_at t ~level) (fun i -> i + 1) in
        let name = Htl.Pretty.to_string f in
        (match Check.ranked t ~level ~k:10 ~outside:all f served with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: %s" name msg);
        match served with
        | (id, a, m) :: rest when a > 0. ->
            let wrong = (id, a /. 2., m) :: rest in
            if Result.is_ok (Check.ranked t ~level ~k:10 ~outside:all f wrong) then
              Alcotest.failf "%s: a halved similarity passed the check" name
        | _ -> ())
      (Corpus.fresh_requests ~seed ~count:16)
  done

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "dense evaluator = Engine.Reference" `Quick
            dense_matches_reference;
          Alcotest.test_case "per-video reference accepts the engine" `Quick
            store_check_accepts_engine;
        ] );
    ]
