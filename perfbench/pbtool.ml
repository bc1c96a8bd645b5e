(* The OCaml half of the served-query benchmark (run.py is the other):

     pbtool gen    WORKLOAD SEED DIR COUNT   write the inputs and request stream
     pbtool check  WORKLOAD SEED LOG LIMIT   check a run's logged answers
     pbtool replay WORKLOAD SEED DIR LOG     time single layers in-process
     pbtool layers --tables N... --stores N...   the §3 cost sweep

   [check], [replay] and [layers] print one JSON object on stdout. *)

open Perfbench_lib
module Json = Obs.Json
module Store = Video_model.Store
module Sharded = Htl_shard.Sharded

let die fmt = Format.kasprintf (fun s -> prerr_endline ("pbtool: " ^ s); exit 2) fmt
let path dir name = Filename.concat dir name

let write_lines file lines =
  Out_channel.with_open_text file (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let read_jsonl file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error e -> die "%s: bad JSON line: %s" file e)

let request_json (level, f) =
  Json.Obj
    [
      ("query", Json.String (Htl.Pretty.to_string f));
      ("level", match level with Some l -> Json.Int l | None -> Json.Null);
    ]

let fresh_store ~seed = Store.create (Corpus.videos ~seed Corpus.store_shape)
let browse_videos ~seed = Corpus.videos ~seed Corpus.browse_shape

(* --- gen ------------------------------------------------------------------ *)

let gen workload seed dir count =
  match workload with
  | "paper-tables" ->
      Storage.Io.save_tables (path dir "tables.sexp")
        (Corpus.tables ~seed ~n:Corpus.table_segments ~atoms:Corpus.table_atoms);
      write_lines (path dir "requests.jsonl")
        (List.map
           (fun f -> Json.to_string (request_json (None, f)))
           (Corpus.table_formulas ~seed ~count))
  | "store-fresh" ->
      Sharded.save_snapshot
        (Sharded.create ~shards:2 (fresh_store ~seed))
        (path dir "store.snap");
      write_lines (path dir "requests.jsonl")
        (List.map
           (fun r -> Json.to_string (request_json r))
           (Corpus.fresh_requests ~seed ~count))
  | "ingest-browse" ->
      Storage.Io.save_store (path dir "store.sexp")
        (Store.create (browse_videos ~seed));
      write_lines (path dir "requests.jsonl")
        (List.map (fun r -> Json.to_string (request_json r)) (Corpus.popular ()));
      write_lines (path dir "ingest.jsonl")
        (List.init count (fun j ->
             Json.to_string
               (Json.Obj
                  [
                    ("batch", Json.Int j);
                    ( "body",
                      Corpus.ingest_json
                        (Corpus.ingest_batch ~seed
                           ~videos:Corpus.browse_shape.videos j) );
                    ( "marker_query",
                      Json.String (Htl.Pretty.to_string (Corpus.marker_formula j)) );
                  ])))
  | w -> die "unknown workload %S" w

(* --- the run log ------------------------------------------------------------ *)

(* One line per operation, written by run.py:
     {"op": "query" | "final", "query": .., "level": .., "k": ..,
      "status": .., "body": <response>}
     {"op": "ingest", "batch": .., "status": .., "body": <response>} *)
type entry = {
  op : string;
  query : string;
  level : int option;
  k : int;
  status : int;
  batch : int;
  body : Json.t;
}

let entry_of_json j =
  let str name = match Json.member name j with Some (Json.String s) -> s | _ -> "" in
  let int name = match Json.member name j with Some (Json.Int n) -> Some n | _ -> None in
  {
    op = str "op";
    query = str "query";
    level = int "level";
    k = Option.value ~default:10 (int "k");
    status = Option.value ~default:0 (int "status");
    batch = Option.value ~default:(-1) (int "batch");
    body = Option.value ~default:Json.Null (Json.member "body" j);
  }

let served e : (Check.ranked, string) result =
  match Json.member "results" e.body with
  | None -> Error "response has no results"
  | Some r -> (
      match Htl_server.Router.results_of_json r with
      | Error msg -> Error msg
      | Ok l ->
          Ok
            (List.map
               (fun (id, s) -> (id, Simlist.Sim.actual s, Simlist.Sim.max_sim s))
               l))

(* a seeded sample of at most [n] elements, in original order *)
let sample ~seed n l =
  let len = List.length l in
  if len <= n then l
  else
    let rng = Workload.Rng.make seed in
    let keep = Array.make len false in
    let picked = ref 0 in
    while !picked < n do
      let i = Workload.Rng.int rng len in
      if not keep.(i) then (keep.(i) <- true; incr picked)
    done;
    List.filteri (fun i _ -> keep.(i)) l

(* --- check ------------------------------------------------------------------ *)

let check_tables ~seed entries =
  let n = Corpus.table_segments in
  let atoms =
    List.map
      (fun (name, t) -> (name, Dense.of_table ~n t))
      (Corpus.tables ~seed ~n ~atoms:Corpus.table_atoms)
  in
  List.map
    (fun e ->
      let d = Dense.eval ~threshold:0.5 atoms (Htl.Parser.formula_of_string e.query) in
      Result.bind (served e) (Check.against_dense ~expected:(Dense.top_k d ~k:e.k) ~max:d.max))
    entries

let outside_sample rng ~count ~n =
  List.init count (fun _ -> 1 + Workload.Rng.int rng n)

let check_fresh ~seed entries =
  let t = Check.of_videos (Corpus.videos ~seed Corpus.store_shape) in
  let rng = Workload.Rng.make (seed + 17) in
  List.map
    (fun e ->
      let level = Option.value ~default:3 e.level in
      let outside = outside_sample rng ~count:8 ~n:(Check.count_at t ~level) in
      Result.bind (served e)
        (Check.ranked t ~level ~k:e.k ~outside (Htl.Parser.formula_of_string e.query)))
    entries

(* The final store is the generated one plus every acknowledged batch,
   in the order the acknowledgements' leaf counts put them. *)
let final_videos ~seed entries =
  let acks =
    List.filter_map
      (fun e ->
        match Json.member "leaf_count" e.body with
        | Some (Json.Int c) when e.op = "ingest" && e.status = 200 -> Some (c, e.batch)
        | _ -> None)
      entries
  in
  let batches =
    List.concat_map
      (fun (_, j) -> Corpus.ingest_batch ~seed ~videos:Corpus.browse_shape.videos j)
      (List.sort compare acks)
  in
  let videos = browse_videos ~seed in
  match (batches, List.rev videos) with
  | [], _ -> videos
  | _, last :: rest -> List.rev (Video_model.Video.append_leaves last batches :: rest)
  | _, [] -> videos

(* [log] is the whole run, for the final store; [finals] the answered
   final queries to check. *)
let check_browse ~seed ~log finals =
  let t = Check.of_videos (final_videos ~seed log) in
  List.map
    (fun e ->
      let level = Option.value ~default:3 e.level in
      let all = List.init (Check.count_at t ~level) (fun i -> i + 1) in
      Result.bind (served e)
        (Check.ranked t ~level ~k:e.k ~outside:all (Htl.Parser.formula_of_string e.query)))
    finals

(* Checks a seeded sample of the 200-answered queries (the final answers
   of ingest-browse are checked in full); prints
   {"checked": n, "failed": [index, ...], "errors": [...]} with indexes
   into the log. *)
let check workload seed log limit =
  let entries = List.mapi (fun i j -> (i, entry_of_json j)) (read_jsonl log) in
  let answered =
    List.filter (fun (_, e) -> e.status = 200 && (e.op = "query" || e.op = "final")) entries
  in
  let picked =
    match workload with
    | "ingest-browse" -> List.filter (fun (_, e) -> e.op = "final") answered
    | _ -> sample ~seed limit answered
  in
  let results =
    let es = List.map snd picked in
    match workload with
    | "paper-tables" -> check_tables ~seed es
    | "store-fresh" -> check_fresh ~seed es
    | "ingest-browse" -> check_browse ~seed ~log:(List.map snd entries) es
    | w -> die "unknown workload %S" w
  in
  let failed =
    List.concat
      (List.map2
         (fun (i, e) r ->
           match r with
           | Ok () -> []
           | Error msg -> [ (i, Printf.sprintf "%s: %s" e.query msg) ])
         picked results)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("checked", Json.Int (List.length picked));
            ("failed", Json.Array (List.map (fun (i, _) -> Json.Int i) failed));
            ( "errors",
              Json.Array
                (List.map (fun (_, m) -> Json.String m) (List.filteri (fun i _ -> i < 5) failed)) );
          ]))

(* --- replay: single layers, timed in-process ---------------------------------- *)

let now = Unix.gettimeofday

(* mean seconds per call of [f] over [xs], repeating the pass until it
   has run at least [min_s] seconds *)
let per_call ?(min_s = 0.05) f xs =
  let n = List.length xs in
  if n = 0 then 0.
  else
    let reps = ref 0 in
    let t0 = now () in
    while now () -. t0 < min_s || !reps = 0 do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      incr reps
    done;
    (now () -. t0) /. float_of_int (n * !reps)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* median of three timed runs of [f] *)
let timed3 f =
  median
    (List.init 3 (fun _ ->
         Gc.full_major ();
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

(* the bytes run.py's client (Python's http.client) writes for a query,
   up to the port number *)
let request_bytes body =
  Printf.sprintf
    "POST /query HTTP/1.1\r\nHost: 127.0.0.1:40000\r\nAccept-Encoding: identity\r\nContent-Length: %d\r\nContent-Type: application/json\r\n\r\n%s"
    (String.length body) body

let http_parse raw =
  let pos = ref 0 in
  let reader =
    Htl_server.Http.reader (fun buf off len ->
        let k = min len (String.length raw - !pos) in
        Bytes.blit_string raw !pos buf off k;
        pos := !pos + k;
        k)
  in
  Htl_server.Http.read_request reader

let plan (ctx : Engine.Context.t) f =
  Engine.Planner.build ?index:(Engine.Context.index ctx) ~tables:ctx.tables
    ~taxonomy:ctx.picture_config.taxonomy ~prune:ctx.picture_config.prune
    ~segments:(Engine.Context.segment_count ctx) ~level:ctx.level f

let ctx_at_level (ctx : Engine.Context.t) = function
  | None -> ctx
  | Some level -> (
      match ctx.store with
      | Some s -> Engine.Context.with_level ctx ~level ~extents:(Store.extents_at s ~level)
      | None -> ctx)

let replay workload seed dir log =
  let entries = List.map entry_of_json (read_jsonl log) in
  let queries = List.filter (fun e -> e.op = "query" && e.status = 200) entries in
  let formulas = List.map (fun e -> Htl.Parser.formula_of_string e.query) queries in
  let bodies =
    List.map
      (fun e ->
        Json.to_string
          (Json.Obj
             [
               ("query", Json.String e.query);
               ("k", Json.Int e.k);
               ("level", match e.level with Some l -> Json.Int l | None -> Json.Null);
             ]))
      queries
  in
  let results = List.filter_map (fun e -> Result.to_option (served e)) queries in
  let results =
    List.map
      (List.map (fun (id, a, m) -> (id, Simlist.Sim.make ~actual:a ~max:m)))
      results
  in
  let htl_parse = per_call Htl.Parser.formula_of_string (List.map (fun e -> e.query) queries) in
  let http_parse = per_call http_parse (List.map request_bytes bodies) in
  let json_encode =
    per_call (fun r -> Json.to_string (Htl_server.Router.results_to_json r)) results
  in
  (* the server's domain pool carries no metrics registry, so its queue
     wait and inline share are measured on an instrumented pool here *)
  let pool_metrics = Obs.Metrics.create () in
  let pool = Parallel.Pool.create ~domains:2 ~metrics:pool_metrics () in
  (* the workload's context, loaded the way the server loads it *)
  let load, ctx, run =
    match workload with
    | "paper-tables" ->
        let file = path dir "tables.sexp" in
        let tables = Storage.Io.load_tables file in
        let ctx = Engine.Context.of_tables ~n:Corpus.table_segments tables in
        ( (fun () -> ignore (Storage.Io.load_tables file)),
          ctx,
          fun (_, f) -> Engine.Query.run ctx f )
    | "store-fresh" ->
        let file = path dir "store.snap" in
        let sh = Sharded.load_snapshot ~pool file in
        ( (fun () -> ignore (Sharded.load_snapshot file)),
          (Sharded.contexts sh).(0),
          fun (level, f) ->
            let sh = match level with Some l -> Sharded.with_level sh ~level:l | None -> sh in
            Sharded.run sh f )
    | "ingest-browse" ->
        let file = path dir "store.sexp" in
        let ctx = Engine.Context.of_store (Storage.Io.load_store file) in
        ( (fun () -> ignore (Storage.Io.load_store file)),
          ctx,
          fun (level, f) -> Engine.Query.run (ctx_at_level ctx level) f )
    | w -> die "unknown workload %S" w
  in
  let levels = List.map (fun e -> e.level) queries in
  let plan_s =
    per_call (fun (level, f) -> plan (ctx_at_level ctx level) f) (List.combine levels formulas)
  in
  let lists =
    List.map run (sample ~seed 16 (List.combine levels formulas))
  in
  Parallel.Pool.shutdown pool;
  let counter name = float_of_int (Obs.Metrics.counter_value pool_metrics name) in
  let inline = counter "pool.tasks_sequential" and fanned = counter "pool.tasks" in
  let pool_wait_ms =
    match Obs.Metrics.find pool_metrics "pool.queue_wait_s" with
    | Some (Obs.Metrics.Histogram h) when h.count > 0 -> 1000. *. h.sum /. float_of_int h.count
    | _ -> 0.
  in
  let topk_s = per_call (fun l -> Engine.Topk.top_k l ~k:10) lists in
  let load_s = timed3 load in
  let append_us =
    match workload with
    | "ingest-browse" ->
        let store = Store.create (browse_videos ~seed) in
        let batches =
          List.filter_map
            (fun e ->
              match Json.member "leaf_count" e.body with
              | Some (Json.Int c) when e.op = "ingest" && e.status = 200 ->
                  Some (c, Corpus.ingest_batch ~seed ~videos:Corpus.browse_shape.videos e.batch)
              | _ -> None)
            entries
          |> List.sort compare |> List.map snd
        in
        let t0 = now () in
        List.iter (Store.append_segments store) batches;
        let segs = List.fold_left (fun acc b -> acc + List.length b) 0 batches in
        if segs = 0 then 0. else (now () -. t0) *. 1e6 /. float_of_int segs
    | _ -> 0.
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("htl.parse_us", Json.Float (htl_parse *. 1e6));
            ("http.parse_us", Json.Float (http_parse *. 1e6));
            ("json.encode_us", Json.Float (json_encode *. 1e6));
            ("engine.plan_us", Json.Float (plan_s *. 1e6));
            ("topk.us", Json.Float (topk_s *. 1e6));
            ("storage.load_s", Json.Float load_s);
            ("store.append_us_per_segment", Json.Float append_us);
            ("pool.wait_ms", Json.Float pool_wait_ms);
            ( "pool.sequential_ratio",
              Json.Float (if inline +. fanned > 0. then inline /. (inline +. fanned) else 0.) );
          ]))

(* --- layers: the §3 cost sweep ------------------------------------------------ *)

(* seconds and minor words of one [f ()], as the median of [reps] runs *)
let cost ~reps f =
  let runs =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        ignore (Sys.opaque_identity (f ()));
        let dt = now () -. t0 in
        (dt, Gc.minor_words () -. w0))
  in
  (median (List.map fst runs), median (List.map snd runs))

let table_entries (t : Simlist.Sim_table.t) =
  List.fold_left
    (fun acc (r : Simlist.Sim_table.row) -> acc + Simlist.Sim_list.length r.list)
    0 (Simlist.Sim_table.rows t)

let layers ~table_sizes ~store_sizes =
  let rows = ref [] in
  let record name ~n ~l (dt, words) =
    let ns = dt *. 1e9 /. float_of_int l and w = words /. float_of_int l in
    Printf.eprintf "layers %-8s n=%-8d l=%-8d %10.1f ns/entry %8.2f words/entry\n%!" name n l ns
      w;
    rows := (name, n, ns, w) :: !rows
  in
  List.iter
    (fun n ->
      (* Table 5/6 over two random atoms at ~10 % selectivity, no cache *)
      let ctx =
        Engine.Context.without_cache
          (Workload.Synthetic.context_with_atoms ~seed:n ~n [ "p1"; "p2" ])
      in
      let l =
        List.fold_left (fun acc (_, t) -> acc + table_entries t) 0 ctx.Engine.Context.tables
      in
      List.iter
        (fun (name, q) ->
          let f = Htl.Parser.formula_of_string q in
          Gc.full_major ();
          record name ~n ~l (cost ~reps:5 (fun () -> Engine.Type1.eval ctx f)))
        [ ("and", "p1 and p2"); ("until", "p1 until p2") ])
    table_sizes;
  List.iter
    (fun n ->
      (* a type (2) join over a store of about [n] shots: l is the two
         atomic tables' entries, over all object bindings *)
      let shape =
        { Corpus.store_shape with videos = max 1 (n / Corpus.store_shape.shots) }
      in
      let store = Store.create (Corpus.videos ~seed:n shape) in
      let shots = Store.count_at store ~level:3 in
      let ctx = Engine.Context.without_cache (Engine.Context.of_store store) in
      let g = Htl.Parser.formula_of_string "present(x) and type(x) = \"man\"" in
      let h = Htl.Parser.formula_of_string "present(x) and speed(x) > 50" in
      let join = Htl.Ast.Exists ("x", Htl.Ast.Until (g, h)) in
      let l =
        table_entries (Engine.Atomic.resolve ctx g) + table_entries (Engine.Atomic.resolve ctx h)
      in
      Gc.full_major ();
      record "join" ~n:shots ~l (cost ~reps:3 (fun () -> Engine.Query.run ctx join));
      (* one equality atom: words per result interval *)
      let eq = Htl.Parser.formula_of_string "seg.mood = \"calm\"" in
      let intervals = Simlist.Sim_list.length (Engine.Query.run ctx eq) in
      Gc.full_major ();
      record "eq_atom" ~n:shots ~l:(max 1 intervals)
        (cost ~reps:3 (fun () -> Engine.Query.run ctx eq)))
    store_sizes;
  (* each formula's figures at its largest size, and how much its cost
     per entry grew from the smallest size to the largest: 1 when the
     cost tracks l *)
  let metrics =
    List.concat_map
      (fun name ->
        let by_size =
          List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b)
            (List.filter (fun (m, _, _, _) -> m = name) !rows)
        in
        match (by_size, List.rev by_size) with
        | [], _ | _, [] -> []
        | _, (_, _, _, w) :: _ when name = "eq_atom" ->
            [ ("layers.eq_atom.words_per_interval", Json.Float w) ]
        | (_, _, ns0, _) :: _, (_, _, ns, w) :: _ ->
            [
              (Printf.sprintf "layers.%s.ns_per_entry" name, Json.Float ns);
              (Printf.sprintf "layers.%s.words_per_entry" name, Json.Float w);
              (Printf.sprintf "layers.%s.growth" name, Json.Float (ns /. ns0));
            ])
      [ "and"; "until"; "join"; "eq_atom" ]
  in
  print_endline (Json.to_string (Json.Obj metrics))

(* --- main --------------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir; count ] -> gen w (int_of_string seed) dir (int_of_string count)
  | [ "check"; w; seed; log; limit ] -> check w (int_of_string seed) log (int_of_string limit)
  | [ "replay"; w; seed; dir; log ] -> replay w (int_of_string seed) dir log
  | "layers" :: "--tables" :: rest ->
      let rec split acc = function
        | "--stores" :: stores -> (List.rev acc, stores)
        | x :: xs -> split (x :: acc) xs
        | [] -> (List.rev acc, [])
      in
      let tables, stores = split [] rest in
      layers
        ~table_sizes:(List.map int_of_string tables)
        ~store_sizes:(List.map int_of_string stores)
  | _ ->
      die
        "usage: pbtool (gen W SEED DIR COUNT | check W SEED LOG LIMIT | replay W \
         SEED DIR LOG | layers --tables N... --stores N...)"
