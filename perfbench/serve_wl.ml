(* Workloads [serve_cold] and [serve_warm]: one op is one [measure] round
   trip — send the request line, read the reply line, parse it — to an
   in-process [Cdse_serve.Server] over one Unix-socket connection, in a
   closed loop with one client.

   Queries are [random_walk] models under the uniform scheduler at depth
   8. Spans are drawn from the seed among those whose walk never reaches
   a clamp and whose visited states all have bit encodings of one length
   (span/2 in 39..54), so every reply has the same size. Each query also
   carries a scheduler bound drawn from the seed, at least the depth:
   it never halts the walk, so it leaves the measure unchanged, but it
   makes the cache key fresh.

   - [serve_cold]: every op sends a query line never sent before, so every
     reply is a cache miss with no resume.
   - [serve_warm]: ops cycle over [warm_keys] queries, fewer than the
     daemon's cache holds; set-up sends each once, so every timed reply is
     a hit served from the render memo.

   Every reply must decode to the reference engine's distribution for its
   spec and report the expected [cached] flag and no resume. The reference
   distributions are built in a child process, which hands back only
   their digests. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Common
module Json = Cdse_serve.Json
module P = Cdse_serve.Protocol
module Oracle = Cdse_testkit.Oracle
module Obs = Cdse_obs.Obs

(* A blocking one-connection client that reads in 64 KB chunks, so the
   round trip is not dominated by the client's own read calls. *)
module Conn = struct
  type t = { fd : Unix.file_descr; chunk : Bytes.t; pending : Buffer.t }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; chunk = Bytes.create 65536; pending = Buffer.create 65536 }

  let send t line =
    let b = Bytes.of_string (line ^ "\n") in
    let rec go off = if off < Bytes.length b then go (off + Unix.write t.fd b off (Bytes.length b - off)) in
    go 0

  (* One reply line. Replies never pipeline here, so a line ends the
     buffered input. *)
  let recv t =
    Buffer.clear t.pending;
    let rec go () =
      let n = Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) in
      if n = 0 then failwith "serve: connection closed by the daemon";
      Buffer.add_subbytes t.pending t.chunk 0 n;
      if Bytes.get t.chunk (n - 1) <> '\n' then go ()
    in
    go ();
    Buffer.sub t.pending 0 (Buffer.length t.pending - 1)

  let close t = Unix.close t.fd
end

let field name j =
  match Json.member name j with Some v -> v | None -> failwith ("serve: reply lacks " ^ name)

let depth = 8
let warm_keys = 16

type key = { span : int; bound : int }

(* The spans keys are drawn from. *)
let spans = List.init 32 (fun i -> 78 + i)

let request_line id { span; bound } =
  Printf.sprintf
    {|{"id":%d,"op":"measure","model":{"kind":"random_walk","span":%d},"sched":{"kind":"uniform","bound":%d},"depth":%d}|}
    id span bound depth

(* The reference distribution of every key with this span, built without
   the daemon's spec parser. A key's scheduler bound is at least the depth,
   so it never halts the walk: the reference runs the walk unbounded. *)
let reference span =
  let auto = Cdse_gen.Workloads.random_walk ~span "w" in
  Oracle.exec_dist auto (Scheduler.uniform auto) ~depth

(* A stream of keys that never repeats. *)
let keys seed =
  let rng = Rng.make seed in
  let seen = Hashtbl.create 1024 in
  let rec next () =
    let k = { span = List.nth spans (Rng.int rng (List.length spans)); bound = depth + Rng.int rng 1_000_000_000 } in
    if Hashtbl.mem seen k then next ()
    else (
      Hashtbl.add seen k ();
      k)
  in
  next

(* What the daemon's worker does to render a reply, as in [Server.run_op]. *)
let envelope id dist cached =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Num (float_of_int id));
         ("ok", Json.Bool true);
         ( "result",
           Json.Obj
             [
               ("depth", Json.Num (float_of_int depth));
               ("tag", Json.Str "exact");
               ("lost", Json.Str "0");
               ("dist", dist);
               ("cached", Json.Bool cached);
               ("resumed_from", Json.Null);
             ] );
       ])
  ^ "\n"

(* The reply's states and actions through [Value.to_bits] /
   [Action.to_bits] and [Bits.to_string], as the codec renders them. *)
let encode_bits d =
  let str bits = ignore (Cdse_util.Bits.to_string bits) in
  Dist.iter
    (fun e _ ->
      str (Value.to_bits (Exec.fstate e));
      List.iter
        (fun (a, q) ->
          str (Action.to_bits a);
          str (Value.to_bits q))
        (Exec.steps e))
    d

let check_reply ~cached ~reference j =
  let result = field "result" j in
  Json.member "ok" j = Some (Json.Bool true)
  && Json.member "cached" result = Some (Json.Bool cached)
  && Json.member "resumed_from" result = Some Json.Null
  && Json.member "tag" result = Some (Json.Str "exact")
  &&
  let d = Cdse_serve.Codec.dist_of_json (field "dist" result) in
  String.equal (fingerprint d) reference && conserved d

(* The daemon's cache hits, misses and evictions from its [stats] op, and
   the sum and count of its request latencies in microseconds. *)
let server_counters conn =
  Conn.send conn {|{"id":0,"op":"stats"}|};
  let c = field "cache" (field "result" (Json.parse (Conn.recv conn))) in
  let latency = Obs.hist_stats (Obs.histogram "serve.latency_us") in
  List.map
    (fun f -> match field f c with Json.Num n -> n | _ -> failwith "serve: bad stats reply")
    [ "hits"; "misses"; "evictions" ]
  @ [ float_of_int latency.Obs.h_sum; float_of_int latency.Obs.h_count ]

let server_metrics = [ "cache.hits"; "cache.misses"; "cache.evict"; "server.latency_us"; "server.requests" ]

let workload ~warm ~seed ~traced =
  let next_key = keys seed in
  (* Cold ops each take a fresh key, drawn as the run goes; warm ops
     cycle over a fixed set drawn once. *)
  let warm_set = Array.init warm_keys (fun _ -> next_key ()) in
  let references = in_child (fun () -> List.map (fun span -> (span, fingerprint (reference span))) spans) in
  let socket = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
  fun () ->
    let server = Cdse_serve.Server.start ~socket () in
    let client = Conn.connect socket in
    let ids = ref 0 in
    let round_trip key =
      incr ids;
      let line = request_line !ids key in
      fun () ->
        Conn.send client line;
        let reply = Conn.recv client in
        (* The daemon's worker shares this domain's runtime lock: let it
           close the request (and record its latency) before parsing. *)
        Thread.yield ();
        (line, reply, Json.parse reply)
    in
    (* Traced runs replay each query on a private engine fed the same
       query sequence, so it misses or hits exactly as the daemon does. *)
    let private_engine = Cdse_serve.Engine.create () in
    let query line =
      match (P.parse_request line).P.r_op with P.Measure q -> q | _ -> assert false
    in
    let replay line =
      let r = Cdse_serve.Engine.measure private_engine (query line) in
      r.m_render := Some (Json.to_string (Cdse_serve.Codec.dist_to_json r.m_dist))
    in
    (* [serve_warm] fills the cache; the runner's warm-up pass then
       serves every key from the render memo once, and checks it. *)
    if warm then
      Array.iter
        (fun key ->
          let line, _, _ = round_trip key () in
          if traced then replay line)
        warm_set;
    let last = ref ("", "", []) in
    let op i =
      let key = if warm then warm_set.(i mod warm_keys) else next_key () in
      let run = round_trip key in
      let before = if traced then server_counters client else [] in
      fun () ->
        let line, reply, j = run () in
        fun () ->
          last := (line, reply, before);
          check_reply ~cached:warm ~reference:(List.assoc key.span references) j
    in
    let trace _ ~op_s =
      let line, reply, before = !last in
      List.iter2 Layers.add server_metrics (List.map2 ( -. ) (server_counters client) before);
      Layers.add "serve.op" op_s;
      Layers.add "wire.reply_bytes" (float_of_int (String.length reply + 1));
      let q = Layers.timed "protocol.parse" (fun () -> query line) in
      let r = Layers.timed "engine.measure" (fun () -> Cdse_serve.Engine.measure private_engine q) in
      let dist =
        if r.Cdse_serve.Engine.m_cached then Json.Raw (Option.value ~default:"" !(r.m_render))
        else begin
          let j = Layers.timed "codec.encode" (fun () -> Cdse_serve.Codec.dist_to_json r.m_dist) in
          Layers.timed "bits.encode" (fun () -> encode_bits r.m_dist);
          let s = Layers.timed "json.render" (fun () -> Json.to_string j) in
          r.m_render := Some s;
          Json.Raw s
        end
      in
      ignore (Layers.timed "json.render" (fun () -> envelope 0 dist r.m_cached));
      ignore (Layers.timed "json.parse" (fun () -> Json.parse reply))
    in
    let layers ~ops =
      let per name = Layers.get name /. float_of_int ops in
      let ms name = 1000. *. per name in
      let hits = Layers.get "cache.hits" and misses = Layers.get "cache.misses" in
      let server_ms =
        Layers.get "server.latency_us" /. Float.max 1. (Layers.get "server.requests") /. 1000.
      in
      let parts =
        List.fold_left (fun acc n -> acc +. Layers.get n) 0.
          [ "protocol.parse"; "engine.measure"; "codec.encode"; "json.render"; "json.parse" ]
      in
      [
        ("protocol.parse_ms", ms "protocol.parse");
        ("engine.measure_ms", ms "engine.measure");
        ("codec.encode_ms", ms "codec.encode");
        ("bits.encode_ms", ms "bits.encode");
        ("json.render_ms", ms "json.render");
        ("json.parse_ms", ms "json.parse");
        ("server.latency_ms", server_ms);
        ("wire.ms", ms "serve.op" -. server_ms -. ms "json.parse");
        ("wire.reply_kb", per "wire.reply_bytes" /. 1000.);
        ("cache.hit_ratio", hits /. Float.max 1. (hits +. misses));
        ("cache.evictions", per "cache.evict");
        ("serve.layer_cover", parts /. Layers.get "serve.op");
      ]
    in
    let close () =
      Conn.close client;
      Cdse_serve.Server.stop server
    in
    { round = (if warm then warm_keys else 4); op; trace; layers; close }
