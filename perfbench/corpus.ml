(* Seeded inputs of the served-query benchmark: the corpora each
   workload serves and the request streams it sends.  Everything is a
   pure function of the seed, so the checker can rebuild what the
   server was given without reading the server's files. *)

module Rng = Workload.Rng
module Ast = Htl.Ast
module Value = Metadata.Value

(* --- paper-tables: §4.2 random atomic tables ---------------------------- *)

let table_segments = 1_000_000
let table_atoms = 16
let table_selectivity = 0.1
let atom_name i = Printf.sprintf "p%d" (i + 1)

let tables ~seed ~n ~atoms =
  let rng = Rng.make seed in
  List.init atoms (fun i ->
      ( atom_name i,
        Workload.Synthetic.atomic_table rng ~n ~selectivity:table_selectivity ()
      ))

let patom i = Ast.Atom (Ast.Rel (atom_name i, []))

(* One round of type (1) requests: the paper's two benchmark shapes
   (Table 5's P1 and P2, Table 6's P1 until P2), its two "more complex"
   formulas, and four more and/until/next/eventually trees.  The shape
   of each slot is fixed and only its atoms come from the seed, so
   every seed asks for the same mix of work. *)
let table_round = 8

let distinct_atoms rng ~atoms k =
  let rec go acc =
    if List.length acc = k then acc
    else
      let a = Rng.int rng atoms in
      if List.mem a acc then go acc else go (a :: acc)
  in
  List.map patom (go [])

let table_formula rng ~atoms ~slot =
  let open Ast in
  match (slot, distinct_atoms rng ~atoms 3) with
  | 0, [ a; b; _ ] -> And (a, b)
  | 1, [ a; b; _ ] -> Until (a, b)
  | 2, [ a; b; c ] -> Until (And (a, Eventually b), c)
  | 3, [ a; b; c ] -> And (a, Next (Until (b, c)))
  | 4, [ a; b; _ ] -> And (Eventually a, Eventually b)
  | 5, [ a; b; c ] -> Until (Until (a, b), c)
  | 6, [ a; b; c ] -> Until (Next a, And (b, c))
  | _, [ a; b; c ] -> And (a, And (b, c))
  | _ -> assert false

(* [count] formulas, pairwise distinct as text, slot [i mod round] of
   each round drawn by [draw ~slot].  A draw that repeats an earlier
   formula is retried; every 50 retries wrap the draw in one more
   [eventually], which keeps the shape's cost and makes it new once a
   shape's atom choices run out. *)
let distinct_stream ~count ~round draw =
  let seen = Hashtbl.create (2 * count) in
  List.init count (fun i ->
      let slot = i mod round in
      let rec pick tries =
        let f = draw ~slot in
        let rec wrap k f = if k = 0 then f else wrap (k - 1) (Ast.Eventually f) in
        let f = wrap (tries / 50) f in
        let s = Htl.Pretty.to_string f in
        if Hashtbl.mem seen s then pick (tries + 1)
        else (
          Hashtbl.add seen s ();
          (slot, f))
      in
      pick 0)

let table_formulas ~seed ~count =
  List.map snd
    (let rng = Rng.make seed in
     distinct_stream ~count ~round:table_round (table_formula rng ~atoms:table_atoms))

(* --- stores: video > scene > shot, objects owned by their video -------- *)

let types = [ "man"; "woman"; "train"; "car"; "gun"; "horse"; "dog" ]
let names = [ "alpha"; "beta"; "gamma"; "delta" ]
let rel_names = [ "holds"; "fires_at"; "near" ]
let level_names = [ "video"; "scene"; "shot" ]

(* video [v] owns object ids [v * id_stride + 1 .. v * id_stride + pool] *)
let id_stride = 100
let objects_per_video = 12

(* [shots] per video, split at random among its [scenes] *)
type store_shape = { videos : int; scenes : int; shots : int }

(* store-fresh: 1 536 shots in 16 videos, every seed *)
let store_shape = { videos = 16; scenes = 5; shots = 96 }

(* ingest-browse: the same videos, four times as many of them *)
let browse_shape = { store_shape with videos = 64 }

(* [n] split into [k] random parts of at least 4 *)
let composition rng ~k n =
  let parts = Array.make k 4 in
  for _ = 1 to n - (4 * k) do
    let i = Rng.int rng k in
    parts.(i) <- parts.(i) + 1
  done;
  Array.to_list parts

(* Object [k] of video [v] is one entity for the whole video, with its
   type, name and speed fixed by (k, v) so that every seed's store holds
   the same population; the seed decides where objects appear. *)
let video_object ~video k =
  let id = (video * id_stride) + 1 + k in
  let attrs =
    ("name", Value.Str (List.nth names ((k + video) mod List.length names)))
    :: (if k mod 3 = 2 then [] else [ ("speed", Value.Int (10 * (1 + ((k + (2 * video)) mod 9)))) ])
  in
  Metadata.Entity.make ~id ~otype:(List.nth types ((k + video) mod List.length types)) ~attrs ()

let random_meta ?(attrs = []) rng ~video =
  let ks =
    List.sort_uniq compare (List.init (Rng.int rng 4) (fun _ -> Rng.int rng objects_per_video))
  in
  let objects = List.map (video_object ~video) ks in
  let ids = List.map (fun (o : Metadata.Entity.t) -> o.id) objects in
  let relationships =
    match ids with
    | a :: b :: _ when Rng.bool rng ->
        [ Metadata.Relationship.make (Rng.pick rng rel_names) [ a; b ] ]
    | _ -> []
  in
  let mood =
    if Rng.bool rng then [ ("mood", Value.Str (Rng.pick rng [ "calm"; "tense" ])) ]
    else []
  in
  Metadata.Seg_meta.make ~objects ~relationships ~attrs:(attrs @ mood) ()

let video rng shape ~video =
  let scene shots =
    Video_model.Segment.make ~meta:(random_meta rng ~video)
      (List.init shots (fun _ -> Video_model.Segment.leaf (random_meta rng ~video)))
  in
  let root_meta = random_meta rng ~video in
  Video_model.Video.create
    ~title:(Printf.sprintf "movie-%d" video)
    ~level_names
    (Video_model.Segment.make ~meta:root_meta
       (List.map scene (composition rng ~k:shape.scenes shape.shots)))

let videos ~seed shape =
  let rng = Rng.make seed in
  List.init shape.videos (fun v -> video rng shape ~video:v)

(* --- store-fresh: one distinct formula per request, four classes ------- *)

let fresh_round = 8

(* Template parameters are drawn from seeded cycles: each (slot, name)
   walks a fresh random permutation of its values, so over a run every
   value comes up equally often and only the pairing, the order and the
   spelling depend on the seed.  Speeds are multiples of 10, so a
   threshold [10 c + r] with r in 0..9 selects the same objects for
   every [r]: the seed's [r] keeps formulas distinct at equal cost. *)
type params = { rng : Rng.t; cycles : (int * string, string array * int ref) Hashtbl.t }

let params rng = { rng; cycles = Hashtbl.create 64 }

let shuffle rng values =
  let a = Array.of_list values in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let pick p ~slot name values =
  let key = (slot, name) in
  let order, next =
    match Hashtbl.find_opt p.cycles key with
    | Some (order, next) when !next < Array.length order -> (order, next)
    | _ ->
        let c = (shuffle p.rng values, ref 0) in
        Hashtbl.replace p.cycles key c;
        c
  in
  let v = order.(!next) in
  incr next;
  v

let ty p ~slot name = Printf.sprintf "%S" (pick p ~slot name types)

let speed p ~slot name =
  let cut = pick p ~slot name [ "2"; "3"; "4"; "5"; "6"; "7"; "8" ] in
  Printf.sprintf "%s%d" cut (Rng.int p.rng 10)

let mood p ~slot name = Printf.sprintf "%S" (pick p ~slot name [ "calm"; "tense" ])
let rel p ~slot name = pick p ~slot name rel_names
let cmp p ~slot name = pick p ~slot name [ "<"; "<="; ">"; ">="; "=" ]

(* Each slot is a fixed template whose parameters (object types, speed
   bounds, moods, relationships, comparisons) come from the seed, so
   every seed asks for the same mix of work while no formula repeats.
   Slots 0-1 are type (1), 2-3 type (2), 4-5 conjunctive (freeze), 6-7
   extended conjunctive.  The extended slots assert level operators at
   the root, so their requests carry level 1; the others query shots. *)
let fresh_formula p ~slot =
  let ty = ty p ~slot and speed = speed p ~slot and mood = mood p ~slot in
  let rel = rel p ~slot and cmp = cmp p ~slot in
  Htl.Parser.formula_of_string
    (match slot with
    | 0 ->
        Printf.sprintf
          "eventually (exists u . (present(u) and type(u) = %s)) and ((exists u . \
           (present(u) and speed(u) > %s)) until seg.mood = %s)"
          (ty "t") (speed "s") (mood "m")
    | 1 ->
        Printf.sprintf
          "next (exists u . (exists v . %s(u, v))) until (exists u . (present(u) and \
           type(u) = %s and speed(u) > %s))"
          (rel "r") (ty "t") (speed "s")
    | 2 ->
        Printf.sprintf
          "exists x . (((present(x) and type(x) = %s) until (present(x) and speed(x) > \
           %s)) and eventually (present(x) and type(x) = %s))"
          (ty "t") (speed "s") (ty "t2")
    | 3 ->
        Printf.sprintf
          "exists x . (eventually (present(x) and speed(x) > %s) and next (present(x) \
           and type(x) = %s) and seg.mood = %s)"
          (speed "s") (ty "t") (mood "m")
    | 4 ->
        Printf.sprintf
          "exists x . (present(x) and [v <- speed(x)] ((speed(x) %s v) until \
           (present(x) and type(x) = %s and speed(x) > %s)))"
          (cmp "c") (ty "t") (speed "s")
    | 5 ->
        Printf.sprintf
          "exists x . ((present(x) and type(x) = %s and speed(x) > %s) and [v <- \
           speed(x)] eventually (present(x) and speed(x) %s v and type(x) = %s))"
          (ty "t") (speed "s") (cmp "c") (ty "t2")
    | 6 ->
        Printf.sprintf
          "at scene level (exists x . eventually (present(x) and type(x) = %s)) and \
           (exists u . (present(u) and speed(u) > %s)) and (exists u . (exists v . \
           %s(u, v)))"
          (ty "t") (speed "s") (rel "r")
    | _ ->
        Printf.sprintf
          "eventually (at %s (exists x . ((present(x) and type(x) = %s) until \
           (present(x) and speed(x) > %s))))"
          (pick p ~slot "l" [ "next level"; "shot level"; "level 3" ])
          (ty "t") (speed "s"))

let fresh_level slot = if slot >= 6 then Some 1 else None

let fresh_requests ~seed ~count =
  List.map
    (fun (slot, f) -> (fresh_level slot, f))
    (distinct_stream ~count ~round:fresh_round (fresh_formula (params (Rng.make seed))))

(* --- ingest-browse: popular formulas and appended shots ---------------- *)

let popular_count = 32

(* The popular formulas are the same for every seed: their parameters
   (object types, speed bounds, moods) decide what the top ranks cost,
   and drawing them from the run's seed moved query_p50_ms by half
   between seeds.  The seed still decides the store, the appended shots
   and the order of the Zipf draws. *)
let popular_params_seed = 2

(* Popular formula [r] (Zipf rank r + 1) follows template [r mod 8]:
   small type (1) and type (2) shapes a browsing client re-asks,
   templates 0-5 at shot level and 6-7 at scene level (24 and 8
   formulas).  None is a temporal type (2) join such as
   [exists x . ((present(x) and type(x) = T) and next present(x))]:
   one of those costs five to ten times a small shape here, and with
   one in the mix the run's latency and peak memory followed when two
   of them happened to overlap.  store-fresh and the layers sweep
   measure that path. *)
let browse_formula p ~slot =
  let ty = ty p ~slot and speed = speed p ~slot and mood = mood p ~slot in
  Htl.Parser.formula_of_string
    (match slot with
    | 0 ->
        Printf.sprintf
          "seg.mood = %s and eventually (exists u . (present(u) and speed(u) > %s))"
          (mood "m") (speed "s")
    | 1 -> Printf.sprintf "exists x . (present(x) and type(x) = %s)" (ty "t")
    | 2 ->
        Printf.sprintf "next (exists u . (exists v . %s(u, v))) and seg.mood = %s"
          (rel p ~slot "r") (mood "m")
    | 3 ->
        Printf.sprintf
          "eventually (exists u . (present(u) and type(u) = %s and speed(u) > %s))"
          (ty "t") (speed "s")
    | 4 ->
        Printf.sprintf "(exists u . (present(u) and speed(u) > %s)) until seg.mood = %s"
          (speed "s") (mood "m")
    | 5 ->
        Printf.sprintf "exists x . (present(x) and type(x) = %s and speed(x) > %s)"
          (ty "t") (speed "s")
    | 6 -> Printf.sprintf "exists x . eventually (present(x) and type(x) = %s)" (ty "t")
    | _ ->
        Printf.sprintf "(exists u . (present(u) and type(u) = %s)) and seg.mood = %s"
          (ty "t") (mood "m"))

let popular () =
  List.map
    (fun (slot, f) -> ((if slot >= 6 then Some 2 else None), f))
    (distinct_stream ~count:popular_count ~round:8
       (browse_formula (params (Rng.make popular_params_seed))))

let shots_per_ingest = 3
let marker j = Printf.sprintf "m%d" j

(* batch [j]: shots for the last video, each carrying the batch's marker *)
let ingest_batch ~seed ~videos j =
  let rng = Rng.make ((seed * 100_003) + j) in
  List.init shots_per_ingest (fun _ ->
      random_meta rng ~video:(videos - 1)
        ~attrs:[ ("marker", Value.Str (marker j)) ])

let marker_formula j =
  Ast.Atom (Ast.Cmp (Ast.Eq, Ast.Seg_attr "marker", Ast.Const (Value.Str (marker j))))

module Json = Obs.Json

let value_json = function
  | Value.Int n -> Json.Int n
  | Value.Float f -> Json.Float f
  | Value.Str s -> Json.String s
  | Value.Bool b -> Json.Bool b

let attrs_json attrs = Json.Obj (List.map (fun (k, v) -> (k, value_json v)) attrs)

(* the POST /ingest body for a batch *)
let ingest_json segments =
  let segment (m : Metadata.Seg_meta.t) =
    Json.Obj
      [
        ("attrs", attrs_json m.attrs);
        ( "objects",
          Json.Array
            (List.map
               (fun (o : Metadata.Entity.t) ->
                 Json.Obj
                   [
                     ("id", Json.Int o.id);
                     ("type", Json.String o.otype);
                     ("attrs", attrs_json o.attrs);
                   ])
               m.objects) );
        ( "relationships",
          Json.Array
            (List.map
               (fun (r : Metadata.Relationship.t) ->
                 Json.Obj
                   [
                     ("name", Json.String r.name);
                     ("args", Json.Array (List.map (fun a -> Json.Int a) r.args));
                   ])
               m.relationships) );
      ]
  in
  Json.Obj [ ("segments", Json.Array (List.map segment segments)) ]
