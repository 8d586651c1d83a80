(* Shared machinery of the benchmark: the session interface every
   workload implements, the wall clock, the per-layer accumulators of a
   traced run, and the numbers the runner reports. *)

let now = Unix.gettimeofday

(* [time f] runs [f] and returns its result with the seconds it took. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One set-up of a workload, ready to run ops. A run attempts whole rounds
   of [round] ops, so every run attempts the same mix of operations; one
   round is also the warm-up pass that ends the set-up. *)
type session = {
  round : int;
  op : int -> unit -> unit -> bool;
      (** [op i] prepares op [i]; applying the result performs it (the
          only timed part) and returns the check of its outputs, which the
          runner runs outside the clock. *)
  trace : int -> op_s:float -> unit;
      (** Traced runs only, after op [i] and its check: re-time op [i]'s
          layers by calling their public functions from outside, given the
          op's own end-to-end time. *)
  layers : ops:int -> (string * float) list;
      (** Traced runs only: the per-layer metrics over [ops] traced ops. *)
  close : unit -> unit;
}

(* A workload turns a seed into inputs and reference results (untimed),
   and returns the set-up, which the runner times and may repeat. *)
type workload = seed:int -> traced:bool -> unit -> session

(* Per-layer accumulators of a traced run, keyed by metric name. *)
module Layers = struct
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 32
  let add name v = Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
  let get name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

  (* Time [f] and charge its seconds to [name]. *)
  let timed name f =
    let r, s = time f in
    add name s;
    r
end

(* [in_child f] runs [f] in a forked child process and returns its
   result, marshalled back through a pipe. Workloads build their inputs
   and reference results this way, before any thread or domain starts, so
   that work counts toward neither this process's peak resident set nor
   its [Obs] counters and histograms. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          let oc = Unix.out_channel_of_descr w in
          Marshal.to_channel oc (f ()) [];
          close_out oc;
          0
        with e ->
          prerr_endline ("perfbench: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic : 'a) with End_of_file | Failure _ -> None in
      close_in ic;
      match (v, snd (Unix.waitpid [] pid)) with
      | Some v, Unix.WEXITED 0 -> v
      | _ -> failwith "perfbench: building the inputs failed"

(* Nearest-rank percentile of an unsorted sample, [0 < p <= 1]. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* Independent sum of a distribution's item probabilities: with the
   stored deficit it must make exactly 1. *)
let conserved d =
  let open Cdse_prob in
  Rat.equal Rat.one
    (Rat.add (Rat.sum (List.map snd (Dist.items d))) (Dist.deficit d))

(* Digest of a distribution's items in its canonical order, over a
   prefix-free spelling of every state, action and probability: equal for
   two distributions exactly when they are bit-identical (up to MD5). The
   digest is chained item by item, so no large string is built. *)
let fingerprint d =
  let open Cdse_psioa in
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let rec value = function
    | Value.Unit -> Buffer.add_char b 'u'
    | Bool x -> Buffer.add_char b (if x then 't' else 'f')
    | Int n ->
        Buffer.add_char b 'i';
        str (string_of_int n)
    | Str s ->
        Buffer.add_char b 's';
        str s
    | Pair (x, y) ->
        Buffer.add_char b 'p';
        value x;
        value y
    | List l ->
        Buffer.add_char b 'l';
        str (string_of_int (List.length l));
        List.iter value l
    | Tag (t, x) ->
        Buffer.add_char b 'g';
        str t;
        value x
  in
  Cdse_prob.Dist.fold
    (fun acc e p ->
      Buffer.clear b;
      Buffer.add_string b acc;
      value (Exec.fstate e);
      str (string_of_int (Exec.length e));
      List.iter
        (fun ((a : Action.t), q) ->
          str a.name;
          value a.payload;
          value q)
        (Exec.steps e);
      str (Cdse_prob.Rat.to_string p);
      Digest.string (Buffer.contents b))
    "" d

(* Machine-speed calibration. This host's speed drifts by up to 2x over
   minutes as other tenants load its memory system, and op times follow
   that drift. A fixed allocation-heavy OCaml kernel (hash-table updates
   with string keys, list building and sorting) follows it within a few
   percent, while a register-only loop does not. The runner times the
   kernel between ops, on the thread that runs them, and scales every
   reported time by [reference_s] over the kernel time around it. The
   kernel promotes little to the major heap, so its time hardly depends on
   the heap the program under test has built. *)
module Calibration = struct
  (* The kernel's median time on a quiet 2-core host of this kind: the
     scale of the reported times. *)
  let reference_s = 0.015

  let kernel () =
    let h = Hashtbl.create 16 in
    for i = 0 to 33_000 do
      Hashtbl.replace h (string_of_int (i land 8191)) [ i; i + 1 ]
    done;
    let l = List.init 33_000 (fun i -> i * 7919 land 4095) in
    ignore (Sys.opaque_identity (List.sort compare l, Hashtbl.length h))

  (* One kernel time in seconds: the median of three. *)
  let sample () =
    let once () = snd (time kernel) in
    median [| once (); once (); once () |]

  (* The factor that brings a time taken at [at] to the reference speed,
     from the three of the (time-ordered) [samples] nearest to [at]. *)
  let scale samples at =
    let n = Array.length samples in
    let next = ref 0 in
    while !next < n && fst samples.(!next) < at do
      incr next
    done;
    let lo = max 0 (min (!next - 1) (n - 3)) in
    let near = Array.sub samples lo (min 3 n) in
    reference_s /. median (Array.map snd near)
end
