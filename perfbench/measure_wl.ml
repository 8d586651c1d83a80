(* Workload [measure]: one op is one [Measure.exec_dist] call at the CLI's
   default knobs (compress off, 1 domain, no memo). Inputs are specs drawn
   from the seed, each under a uniform scheduler with a fault budget k,
   bounded by its depth:

   - [n_pca] [random_pca] models with faults (seed, 3 or 4 members and
     k in 0..2 drawn);
   - [n_channel] [faulty_channel] models (seed drawn; its parity picks
     the lossy or the reordering channel), cycling over both channels
     and k in 1..2 so every round holds the same channel shapes.

   Each spec gets the least depth (up to [max_depth]) at which its
   support reaches [band]; a spec whose support jumps over the band, or
   never reaches it, is dropped. Its reference support must lie in the
   band too, so op cost stays in one narrow range per model family. Each
   round runs every input once, in a seed-drawn order.

   Every output must be bit-identical to [Cdse_testkit.Oracle.exec_dist],
   the list-based reference engine (compared through a digest of both),
   and its items must sum, with the stored deficit, to exactly 1. The
   screening and the reference runs happen in a child process, which
   hands back only the specs and digests. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Common
module P = Cdse_serve.Protocol
module Oracle = Cdse_testkit.Oracle

let band = (300, 700)
let n_pca = 96
let n_channel = 32
let max_depth = 14

type input = { model : P.model; sched : P.sched; depth : int; reference : Digest.t }

let in_band n = fst band <= n && n <= snd band

(* The least depth at which [model] under fault budget [k] has its
   support in the band, with the reference digest there. Support never
   shrinks with depth, so a budgeted engine run (capped just above the
   band, hence cheap) deepens until the support reaches the band; the
   reference engine then confirms it. *)
let screen ?(from = 1) model k =
  let auto = P.build_model model in
  let rec deepen depth =
    let sched = { P.s_kind = P.Uniform; s_fault_budget = Some k; s_bound = Some depth } in
    let s = P.build_sched auto sched in
    let cap = snd band + 1 in
    match Measure.exec_dist_budgeted ~max_execs:cap ~max_width:cap auto s ~depth with
    | `Exact d when Dist.size d < fst band -> if depth < max_depth then deepen (depth + 1) else None
    | `Exact d when in_band (Dist.size d) ->
        let reference = Oracle.exec_dist auto s ~depth in
        if in_band (Dist.size reference) then
          Some { model; sched; depth; reference = fingerprint reference }
        else None
    | _ -> None
  in
  deepen from

(* [n] accepted candidates; [candidate i] proposes the [i]th. *)
let draw n candidate =
  let rec go acc tries =
    if List.length acc = n then acc
    else if tries = 0 then failwith "measure: too few specs reach the support band"
    else
      match candidate (List.length acc) with
      | Some input -> go (input :: acc) (tries - 1)
      | None -> go acc (tries - 1)
  in
  go [] (20 * n)

let inputs seed =
  let rng = Rng.make seed in
  let pca _ =
    let model =
      P.Random_pca { seed = Rng.int rng 1_000_000; members = 3 + Rng.int rng 2; faults = true }
    in
    screen model (Rng.int rng 3)
  in
  (* A channel's shape is fixed by [i mod 4]; later specs of a shape
     start deepening where the first one stopped. *)
  let from = Hashtbl.create 4 in
  let channel i =
    let model = P.Faulty_channel { seed = (2 * Rng.int rng 1_000_000) + (i mod 2) } in
    let found = screen ?from:(Hashtbl.find_opt from (i mod 4)) model (1 + (i / 2 mod 2)) in
    Option.iter (fun input -> Hashtbl.replace from (i mod 4) input.depth) found;
    found
  in
  let pcas = draw n_pca pca in
  let channels = draw n_channel channel in
  Array.of_list (Rng.shuffle rng (pcas @ channels))

let workload ~seed ~traced:_ =
  let inputs = in_child (fun () -> inputs seed) in
  let n = Array.length inputs in
  fun () ->
    let elaborated =
      Array.map
        (fun i ->
          let auto = P.build_model i.model in
          (auto, P.build_sched auto i.sched))
        inputs
    in
    let last = ref None in
    let op i =
      let input = inputs.(i mod n) and auto, sched = elaborated.(i mod n) in
      fun () ->
        let d = Measure.exec_dist ~domains:1 ~compress:`Off auto sched ~depth:input.depth in
        fun () ->
          last := Some d;
          String.equal (fingerprint d) input.reference && conserved d
    in
    let trace _ ~op_s =
      Option.iter
        (fun d ->
          Layers.add "measure.op" op_s;
          Layers.add "measure.execs" (float_of_int (Dist.size d));
          ignore (Layers.timed "dist.make" (fun () -> Dist.make ~compare:Exec.compare (Dist.items d))))
        !last
    in
    let layers ~ops =
      let execs = Layers.get "measure.execs" in
      [
        ("measure.execs", execs /. float_of_int ops);
        ("measure.us_per_exec", 1e6 *. Layers.get "measure.op" /. execs);
        ("dist.make_ms", 1000. *. Layers.get "dist.make" /. float_of_int ops);
      ]
    in
    { round = n; op; trace; layers; close = ignore }
