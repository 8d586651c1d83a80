(* The cdse benchmark runner.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, sets the workload up
   [setups] times (reporting the median set-up time), then runs ops in a
   closed loop until [--seconds] have passed and at least [min_ops] ops
   are done, stopping only at the end of a round. Each op's outputs are
   checked between ops, outside the clock.

   The last line of standard output is one JSON object: [correct],
   [attempted], [failed] and [metrics] — the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1], named and in
   the units that [BENCHMARK.json] declares. A traced run times each
   layer from outside after every op, so its end-to-end times are not
   reported as metrics. Every reported time is scaled to a reference
   machine speed (see [Common.Calibration]); the summary line before the
   result gives the unscaled op times and the kernel times. *)

open Common
module Obs = Cdse_obs.Obs
module Json = Cdse_serve.Json

let setups = 9
let min_ops = 100

let workloads : (string * workload) list =
  [
    ("check", Check_wl.workload);
    ("measure", Measure_wl.workload);
    ("serve_cold", Serve_wl.workload ~warm:false);
    ("serve_warm", Serve_wl.workload ~warm:true);
  ]

(* The metrics [BENCHMARK.json] declares under [key], with their units,
   in its order. The runner runs from the checkout's root, where the file
   is. *)
let declared key =
  let json = Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let metric m =
    match (Json.member "name" m, Json.member "unit" m) with
    | Some (Json.Str name), Some (Json.Str unit) -> (name, unit)
    | _ -> failwith "BENCHMARK.json: a metric lacks its name or unit"
  in
  match Json.member key json with
  | Some (Json.List ms) -> List.map metric ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

(* [Obs] counters read around each timed op of a traced run. *)
let counters = [ "measure.finished"; "sched.validations"; "rat.promotions" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (check|measure|serve_cold|serve_warm) --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = match List.assoc_opt (get "workload") workloads with Some w -> w | None -> usage () in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (get "workload", workload, int "seed", float_of_int (int "seconds"), traced)

let json_metrics ms =
  String.concat ", "
    (List.map (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.10g, \"unit\": %S}" name v unit) ms)

let () =
  let name, workload, seed, seconds, traced = parse_args () in
  let metrics = declared (if traced then "per_layer" else "end_to_end") in
  (* Kernel samples (time taken, seconds), before each set-up and twice a
     second in the loop. Each set-up and op time is scaled by the median
     of the three samples nearest to it, so the scale follows the host's
     drift within a run. *)
  let samples = ref [] and last_sample = ref 0. in
  let calibrate () =
    samples := (now (), Calibration.sample ()) :: !samples;
    last_sample := now ()
  in
  if traced then Obs.set_enabled true;
  let setup = workload ~seed ~traced in
  let setup_times = Array.make setups (0., 0.) in
  let session = ref None in
  for r = 0 to setups - 1 do
    Option.iter (fun s -> s.close ()) !session;
    Gc.compact ();
    calibrate ();
    (* Set-up ends with one warm-up round, whose outputs are checked
       once the clock has stopped. *)
    let (s, checks), dt =
      time (fun () ->
          let s = setup () in
          (s, List.init s.round (fun i -> s.op i ())))
    in
    if not (List.for_all (fun check -> check ()) checks) then
      failwith (name ^ ": a warm-up output differs from its independent computation");
    setup_times.(r) <- (now (), dt);
    session := Some s
  done;
  let s = Option.get !session in
  Gc.compact ();
  (* An op that raises, or whose outputs fail their check, counts as
     failed and makes the run incorrect. *)
  let times = ref [] and failed = ref 0 in
  let deltas = Array.make (List.length counters) 0 in
  let read () = List.map Obs.counter_value counters in
  let ops = ref 0 and deadline = now () +. seconds in
  while !ops < min_ops || !ops mod s.round <> 0 || now () < deadline do
    if now () -. !last_sample > 0.5 then calibrate ();
    let i = !ops in
    incr ops;
    let run = s.op i in
    let before = if traced then read () else [] in
    match time run with
    | check, dt ->
        if traced then List.iteri (fun j (a, b) -> deltas.(j) <- deltas.(j) + b - a) (List.combine before (read ()));
        times := (now (), dt) :: !times;
        if not (try check () with _ -> false) then incr failed;
        if traced then s.trace i ~op_s:dt
    | exception e ->
        Printf.eprintf "op %d failed: %s\n%!" i (Printexc.to_string e);
        incr failed
  done;
  calibrate ();
  let ops = !ops in
  let layers = if traced then s.layers ~ops else [] in
  s.close ();
  let samples = Array.of_list (List.rev !samples) in
  let scaled (at, dt) = dt *. Calibration.scale samples at in
  let raw = Array.of_list (List.map snd !times) in
  let t = Array.map scaled (Array.of_list !times) in
  let scale = Calibration.reference_s /. median (Array.map snd samples) in
  (* Op-time statistics; 0 when no op completed, a run that is not
     correct anyway. *)
  let ops_per_s t = if t = [||] then 0. else float_of_int (Array.length t) /. Array.fold_left ( +. ) 0. t in
  let op_ms t p = if t = [||] then 0. else 1000. *. percentile t p in
  let values =
    if traced then begin
      let per_op j = float_of_int deltas.(j) /. float_of_int ops in
      let obs =
        List.mapi (fun j c -> (c, per_op j)) counters
        @ [ ("measure.frontier_max",
             float_of_int (Obs.hist_stats (Obs.histogram "measure.frontier.width")).Obs.h_max) ]
      in
      (* A workload that does not exercise a layer reports 0 for it. *)
      List.map
        (fun (m, unit) ->
          let v = Option.value ~default:0. (List.assoc_opt m (layers @ obs)) in
          if unit = "ms/op" || unit = "us" then v *. scale else v)
        metrics
    end
    else
      let e2e =
        [
          ("setup_s", median (Array.map scaled setup_times));
          ("ops_per_s", ops_per_s t);
          ("op_ms_p50", op_ms t 0.5);
          ("op_ms_p90", op_ms t 0.9);
          ("peak_rss_mb", peak_rss_mb ());
        ]
      in
      List.map
        (fun (m, _) ->
          match List.assoc_opt m e2e with Some v -> v | None -> failwith ("no end-to-end metric " ^ m))
        metrics
  in
  let kernel_ms = Array.map (fun (_, k) -> 1000. *. k) samples in
  Printf.printf
    "# %s seed=%d traced=%b ops=%d failed=%d unscaled: ops_per_s=%.4g op_ms_p50=%.4g op_ms_p90=%.4g; kernel_ms median=%.3f min=%.3f max=%.3f\n"
    name seed traced ops !failed (ops_per_s raw) (op_ms raw 0.5) (op_ms raw 0.9) (median kernel_ms)
    (Array.fold_left Float.min infinity kernel_ms)
    (Array.fold_left Float.max 0. kernel_ms);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (!failed = 0) ops
    !failed
    (json_metrics (List.map2 (fun (m, unit) v -> (m, v, unit)) metrics values))
