(* Workload [check]: one op is one E18 compromise-budget point — the
   OTP-channel ≤_SE verdict plus the 2-of-3 committee verdict at the same
   budget k — under the default [Impl] engine at 1 domain. Each round
   visits k = 0..3 once, in an order drawn from the seed.

   The expected verdicts are the tolerance thresholds of the two systems,
   not stored outputs: the OTP channel tolerates no takeover (holds iff
   k = 0, slack 0 or 1/2), the 2-of-3 committee one (holds iff k <= 1,
   slack 0 or 1). *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_fault
open Cdse_config
open Cdse_secure
open Cdse_crypto
open Cdse_dynamic
open Common

(* One side of a ≤_SE check, as [Impl.approx_le_engine] receives it once
   the real and ideal systems are hidden. *)
type side = {
  real : Structured.t;
  ideal : Structured.t;
  adv : Psioa.t;
  sim : Psioa.t;
  limits : int option * int option;  (** [hidden_system]'s max states, max depth *)
  schema : int -> Schema.t;
  env : Psioa.t;
  bound : int;
}

(* E18's OTP system: two compromisable one-time-pad channels. *)
let otp () =
  let names = [ "n0"; "n1" ] in
  let wrapped n =
    Fault.compromise
      ~adversarial:(Structured.psioa (Secure_channel.real_leaky n))
      (Structured.psioa (Secure_channel.real n))
  in
  let inj = Fault.injector ~faults:(List.map Fault.compromise_action names) () in
  let sys = Compose.parallel (inj :: List.map wrapped names) in
  let eact q =
    Action_set.filter
      (fun a ->
        let base = Action.name a in
        List.exists
          (fun n -> String.equal base (n ^ ".send") || String.equal base (n ^ ".recv"))
          names)
      (Sigs.ext (Psioa.signature sys q))
  in
  {
    real = Structured.make sys ~eact;
    ideal = Structured.compose (Secure_channel.ideal "n0") (Secure_channel.ideal "n1");
    adv = Compose.parallel (List.map Secure_channel.adversary names);
    sim = Compose.parallel (List.map Secure_channel.simulator names);
    limits = (None, None);
    schema = (fun k -> Fault.compromise_budget k);
    env = Secure_channel.env_guess ~msg:1 "n0";
    bound = 24;
  }

(* "cmt.retire<i>" is chair bookkeeping, not an attack; the budgeted
   scheduler steers around it, as in E18. *)
let is_retire a =
  let name = Action.name a in
  String.length name >= 10 && String.equal (String.sub name 0 10) "cmt.retire"

(* E18's committee: 3 compromisable validators, 2-of-3 quorum, no
   adversary on either side. *)
let committee () =
  let nobody =
    Psioa.make ~name:"nobody" ~start:Value.unit
      ~signature:(fun _ -> Sigs.empty)
      ~transition:(fun _ _ -> None)
  in
  let cmt =
    Committee.build ~max_validators:3 ~blocks:1 ~quorum:(`At_least 2)
      ~wrap_validator:(fun _ v -> Fault.compromise ~adversarial:(Adversary.silent_takeover v) v)
      "cmt"
  in
  let inj =
    Fault.injector
      ~faults:(List.init 3 (fun i -> Fault.compromise_action (Committee.validator_name "cmt" i)))
      ()
  in
  {
    real = Committee.structured_psioa (Compose.pair inj (Pca.psioa cmt)) "cmt";
    ideal = Committee.ideal ~blocks:1 "cmt";
    adv = nobody;
    sim = nobody;
    limits = (Some 800, Some 20);
    schema = (fun k -> Fault.compromise_budget ~avoid:is_retire k);
    env = Committee.env_commit ~block:0 "cmt";
    bound = 20;
  }

let hidden s side =
  let max_states, max_depth = s.limits in
  match side with
  | `Real -> Emulation.hidden_system ?max_states ?max_depth s.real s.adv
  | `Ideal -> Emulation.hidden_system ?max_states ?max_depth s.ideal s.sim

(* The program's own path: E18 runs the OTP side through
   [Emulation.check_engine] and the committee side through
   [hidden_system] + [Impl.approx_le_engine]. *)
let verdict_otp s k =
  Emulation.check_engine Impl.default_engine ~schema:(s.schema k) ~insight_of:Insight.accept
    ~envs:[ s.env ] ~eps:Rat.zero ~q1:s.bound ~q2:s.bound ~depth:(s.bound + 2)
    ~adversaries:[ s.adv ] ~sim_for:(fun _ -> s.sim) ~real:s.real ~ideal:s.ideal

let verdict_committee s k =
  let a = hidden s `Real and b = hidden s `Ideal in
  Impl.approx_le_engine Impl.default_engine ~schema:(s.schema k) ~insight_of:Insight.accept
    ~envs:[ s.env ] ~eps:Rat.zero ~q1:s.bound ~q2:s.bound ~depth:(s.bound + 2) ~a ~b

(* The same verdict with each layer timed from outside, in the order
   [Impl.run] calls them; returns the worst best-match distance. *)
let traced_worst s k =
  let schema = s.schema k and depth = s.bound + 2 in
  let a = Layers.timed "emulation.hidden_system" (fun () -> hidden s `Real) in
  let b = Layers.timed "emulation.hidden_system" (fun () -> hidden s `Ideal) in
  let comp_a = Compose.pair s.env a and comp_b = Compose.pair s.env b in
  let instantiate comp =
    let ss = Layers.timed "schema.instantiate" (fun () -> Schema.bounded_instantiate schema ~bound:s.bound comp) in
    Layers.add "schema.schedulers" (float_of_int (List.length ss));
    ss
  in
  let fdist comp sigma =
    Layers.timed "insight.fdist" (fun () ->
        Insight.apply ~memo:false ~domains:1 ~compress:`Off (Insight.accept comp) comp sigma ~depth)
  in
  List.fold_left
    (fun worst sigma1 ->
      let da = fdist comp_a sigma1 in
      let best =
        List.fold_left
          (fun best sigma2 ->
            let db = fdist comp_b sigma2 in
            Rat.min best (Layers.timed "stat.distance" (fun () -> Stat.sup_set_distance da db)))
          Rat.one (instantiate comp_b)
      in
      Rat.max worst best)
    Rat.zero (instantiate comp_a)

let expect_otp k = (k = 0, if k = 0 then Rat.zero else Rat.half)
let expect_committee k = (k <= 1, if k <= 1 then Rat.zero else Rat.one)

let matches (holds, worst) v = v.Impl.holds = holds && Rat.equal v.Impl.worst worst

let workload ~seed ~traced:_ =
  let order = Array.of_list (Rng.shuffle (Rng.make seed) [ 0; 1; 2; 3 ]) in
  let k_of i = order.(i mod 4) in
  fun () ->
    let o = otp () and c = committee () in
    let op i =
      let k = k_of i in
      fun () ->
        let vo = verdict_otp o k in
        let vc = verdict_committee c k in
        fun () -> matches (expect_otp k) vo && matches (expect_committee k) vc
    in
    let trace i ~op_s =
      let k = k_of i in
      let wo = traced_worst o k and wc = traced_worst c k in
      Layers.add "check.op" op_s;
      if not (Rat.equal wo (snd (expect_otp k)) && Rat.equal wc (snd (expect_committee k))) then
        failwith "check: traced verdict differs from the E18 thresholds"
    in
    let layers ~ops =
      let per name = Layers.get name /. float_of_int ops in
      let ms name = 1000. *. per name in
      let parts =
        List.fold_left (fun acc n -> acc +. Layers.get n) 0.
          [ "emulation.hidden_system"; "schema.instantiate"; "insight.fdist"; "stat.distance" ]
      in
      [
        ("emulation.hidden_system_ms", ms "emulation.hidden_system");
        ("schema.instantiate_ms", ms "schema.instantiate");
        ("schema.schedulers", per "schema.schedulers");
        ("insight.fdist_ms", ms "insight.fdist");
        ("stat.distance_ms", ms "stat.distance");
        ("check.layer_cover", parts /. Layers.get "check.op");
      ]
    in
    { round = 4; op; trace; layers; close = ignore }
