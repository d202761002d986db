(* The three workloads. Each sets up its inputs, runs whole passes of
   schedule evaluations into an [Evals] log, and checks the pass's
   outputs afterwards, untimed. Every call into the program goes through
   its public modules: Variants, Session, Tuner and Compiler. *)

open Alcop
open Alcop_sched
module Params = Alcop_perfmodel.Params
module Timing = Alcop_gpusim.Timing
module Tuner = Alcop_tune.Tuner
module Suites = Alcop_workloads.Suites

let hw = Alcop_hw.Hw_config.default

type point = { spec : Op_spec.t; params : Params.t; extra_regs : int }

(* The tuner seed of tune-analytical-xgb; with budget 50 this is the
   Fig. 13 protocol. *)
let tune_seed = 2023

type inst = {
  ops : Op_spec.t list;
  capacity : int;  (** evaluations in one pass *)
  reset : unit -> unit;  (** fresh caches before a pass, untimed *)
  round : Evals.t -> unit;  (** one measured pass *)
  after_round : Checks.t -> Evals.t -> unit;
  best_cycles : Evals.t -> float;
  points : point array;  (** candidates for sampled checks and replay *)
  session : unit -> Session.t option;
}

type t = { name : string; setup : unit -> inst }

let cold_cost pt =
  match
    Compiler.compile ~hw ~extra_regs_per_thread:pt.extra_regs pt.params pt.spec
  with
  | Ok c -> Some c.Compiler.latency_cycles
  | Error _ -> None

let show = function Some c -> Printf.sprintf "%.17g" c | None -> "rejected"

let planted (chk : Checks.t) k c =
  if chk.Checks.plant = Checks.Cost && k = 0 then
    Some (Option.value c ~default:0.0 +. 1.0)
  else c

let check_cold chk log i pt recorded =
  let cold = cold_cost pt in
  Checks.expect_eval chk log i (Evals.same_cost recorded cold)
    "%s %s: recorded %s, cold compile %s" pt.spec.Op_spec.name
    (Params.to_string pt.params) (show recorded) (show cold)

let geomean_of_opts l =
  Meter.geomean (List.map (function Some c -> c | None -> nan) l)

let session_hits s () = (Session.stats s).Session.hits

(* ------------------------------------------------------------------ *)
(* fig10-sweep: the Fig. 10 protocol, an exhaustive search of every
   variant's space through the shared per-hardware session, as
   [Variants.best_latency] does. *)

let fig10_ops =
  Suites.[ mm_bert_fc1; mm_rn50_fc; bmm_gpt2_qk; conv_vgg_3x3 ]

let variants = Array.of_list Variants.all

let variant_index v =
  let rec go i =
    if variants.(i) == v then i else go (i + 1)
  in
  go 0

let fig10 =
  let setup () =
    Passman.set_validate_ir false;
    let session = Session.for_hw hw in
    Session.attach_store session None;
    Session.clear session;
    let groups =
      List.concat
        (List.mapi
           (fun o spec ->
             List.map
               (fun v -> (o, spec, v, Variants.space v spec))
               Variants.all)
           fig10_ops)
    in
    let points =
      Array.concat
        (List.map
           (fun (_, spec, v, space) ->
             Array.map
               (fun params ->
                 { spec; params; extra_regs = Variants.extra_regs v spec params })
               space)
           groups)
    in
    (* op and variant of each evaluation, in pass order *)
    let owner =
      Array.concat
        (List.map
           (fun (o, _, v, space) ->
             Array.make (Array.length space) (o, variant_index v))
           groups)
    in
    let n_ops = List.length fig10_ops in
    let bests (log : Evals.t) =
      let b = Array.make_matrix n_ops (Array.length variants) infinity in
      for i = 0 to log.Evals.n - 1 do
        match Evals.cost_opt log i with
        | Some c ->
          let o, v = owner.(i) in
          if c < b.(o).(v) then b.(o).(v) <- c
        | None -> ()
      done;
      b
    in
    let alcop = variant_index Variants.alcop in
    let served = session_hits session in
    { ops = fig10_ops;
      capacity = Array.length points;
      reset = (fun () -> Session.clear session; Timing.wave_cache_clear ());
      round =
        (fun log ->
          List.iter
            (fun (_, spec, v, space) ->
              let ev = Variants.evaluator ~hw ~session v spec in
              ignore
                (Tuner.exhaustive ~space
                   ~evaluate:(fun p -> Evals.eval log ~served (fun () -> ev p))
                   ()))
            groups);
      after_round =
        (fun chk log ->
          let b = bests log in
          let tvm = variant_index Variants.tvm
          and tvm_db = variant_index Variants.tvm_db
          and no_ml_ms = variant_index Variants.alcop_no_ml_ms
          and no_ml = variant_index Variants.alcop_no_ml in
          if chk.Checks.plant = Checks.Bests then begin
            let x = b.(0).(alcop) in
            b.(0).(alcop) <- b.(0).(tvm);
            b.(0).(tvm) <- x
          end;
          List.iteri
            (fun o spec ->
              let r = b.(o) in
              Checks.expect chk
                (r.(alcop) <= r.(no_ml) && r.(no_ml) <= r.(no_ml_ms)
                 && r.(no_ml_ms) <= r.(tvm) && r.(tvm_db) <= r.(tvm))
                "%s: bests out of order (ALCOP %g, w/o ML %g, w/o ML&MS %g, \
                 TVM DB %g, TVM %g)"
                spec.Op_spec.name r.(alcop) r.(no_ml) r.(no_ml_ms) r.(tvm_db)
                r.(tvm))
            fig10_ops;
          let hits =
            Checks.indices log.Evals.n (fun i ->
                Bytes.get log.Evals.hit i = 'h'
                && Bytes.get log.Evals.status i = 'o')
          in
          Array.iteri
            (fun k i ->
              check_cold chk log i points.(i)
                (planted chk k (Evals.cost_opt log i)))
            (Checks.sample chk 12 hits));
      best_cycles =
        (fun log ->
          let b = bests log in
          Meter.geomean (List.init n_ops (fun o -> b.(o).(alcop))));
      points;
      session = (fun () -> Some session) }
  in
  { name = "fig10-sweep"; setup }

(* ------------------------------------------------------------------ *)
(* tune-analytical-xgb: the CLI's default tuner at the Fig. 13 budget. *)

let alcop_spaces ops =
  List.map (fun spec -> (spec, Variants.space Variants.alcop spec)) ops

let space_points spaces =
  Array.concat
    (List.map
       (fun (spec, space) ->
         Array.map (fun params -> { spec; params; extra_regs = 0 }) space)
       spaces)

(* (eval index, op, trial) of every trial, in measurement order. *)
let trials_in_order spaces results =
  let off = ref 0 in
  Array.concat
    (List.map2
       (fun (spec, _) (r : Tuner.result) ->
         let base = !off in
         off := base + Array.length r.Tuner.trials;
         Array.mapi (fun j t -> (base + j, spec, t)) r.Tuner.trials)
       spaces results)

let point_of spec (t : Tuner.trial) =
  { spec; params = t.Tuner.params; extra_regs = 0 }

let tuned_best results = geomean_of_opts (List.map Tuner.best results)

let xgb_ops = Suites.[ mm_rn50_fc; bmm_bert_sv ]
let xgb_budget = 50

let tune_analytical_xgb =
  let setup () =
    Passman.set_validate_ir true;
    let spaces = alcop_spaces xgb_ops in
    let session = ref (Session.create ~hw ()) in
    let results = ref [] in
    { ops = xgb_ops;
      capacity = xgb_budget * List.length xgb_ops;
      reset =
        (fun () ->
          session := Session.create ~hw ();
          Timing.wave_cache_clear ());
      round =
        (fun log ->
          let served = session_hits !session in
          results :=
            List.map
              (fun (spec, space) ->
                let ev = Variants.evaluator ~hw ~session:!session Variants.alcop spec in
                Tuner.run ~hw ~spec ~space ~budget:xgb_budget
                  ~seed:tune_seed
                  ~evaluate:(fun p -> Evals.eval log ~served (fun () -> ev p))
                  Tuner.Analytical_xgb)
              spaces);
      after_round =
        (fun chk log ->
          List.iteri
            (fun o ((spec, space), (r : Tuner.result)) ->
              let idx = Array.map (fun t -> t.Tuner.index) r.Tuner.trials in
              if chk.Checks.plant = Checks.Dup && o = 0 && Array.length idx > 1
              then idx.(1) <- idx.(0);
              let distinct = List.sort_uniq compare (Array.to_list idx) in
              Checks.expect chk
                (Array.length idx = xgb_budget
                 && List.length distinct = xgb_budget
                 && Array.for_all2
                      (fun i (t : Tuner.trial) ->
                        i >= 0 && i < Array.length space
                        && Params.to_string space.(i)
                           = Params.to_string t.Tuner.params)
                      idx r.Tuner.trials)
                "%s: %d trials over %d distinct points of its space, want %d"
                spec.Op_spec.name (Array.length idx) (List.length distinct)
                xgb_budget)
            (List.combine spaces !results);
          Array.iteri
            (fun k (i, spec, (t : Tuner.trial)) ->
              check_cold chk log i (point_of spec t) (planted chk k t.Tuner.cost))
            (trials_in_order spaces !results));
      best_cycles = (fun _ -> tuned_best !results);
      points = space_points spaces;
      session = (fun () -> Some !session) }
  in
  { name = "tune-analytical-xgb"; setup }

(* ------------------------------------------------------------------ *)
(* verify-space: every point of four tiny operators' spaces, compiled and
   run in the functional interpreter, as [alcop verify] does. *)

let verify_ops =
  [ Op_spec.matmul ~name:"V_GEMM_32" ~m:32 ~n:32 ~k:32 ();
    Op_spec.matmul ~name:"V_GEMM_32_relu" ~epilogue:"relu" ~m:32 ~n:32 ~k:32 ();
    Op_spec.batched_matmul ~name:"V_BMM_2x32" ~batch:2 ~m:32 ~n:32 ~k:32 ();
    Op_spec.conv2d ~name:"V_Conv_3x3"
      { Op_spec.cn = 2; ci = 16; ch = 4; cw = 4; co = 32; ckh = 3; ckw = 3;
        stride = 1; pad = 1 } ]

(* As [alcop verify]: compile, then run the interpreter against the host
   reference. A mismatch is noted in [diffs] and checked after the pass. *)
let compile_and_verify diffs i pt =
  match Compiler.compile ~hw pt.params pt.spec with
  | Error _ -> None
  | Ok c ->
    (match Compiler.verify c with
     | Ok _ -> ()
     | Error diff -> diffs.(i) <- diff);
    Some c.Compiler.latency_cycles

(* Run a compiled point in the interpreter on inputs drawn from [seed]
   and compare it element by element with a host reference computed
   apart from the compiler: the direct convolution for Conv2D, the host
   GEMM otherwise. *)
let direct_check ~plant (c : Compiler.compiled) spec seed =
  let module R = Alcop_gpusim.Reference in
  let module T = Alcop_gpusim.Tensor in
  let a, b, expected =
    match spec.Op_spec.kind with
    | Op_spec.Conv2d cs ->
      let image =
        T.random ~seed [ cs.Op_spec.cn; cs.Op_spec.ci; cs.Op_spec.ch; cs.Op_spec.cw ]
      in
      let weights =
        T.random ~seed:(seed + 1)
          [ cs.Op_spec.co; cs.Op_spec.ci; cs.Op_spec.ckh; cs.Op_spec.ckw ]
      in
      (R.im2col cs image, R.flatten_weights cs weights,
       R.conv2d_direct cs ~image ~weights)
    | Op_spec.Matmul | Op_spec.Batched_matmul ->
      let a = T.random ~seed (Op_spec.a_shape spec) in
      let b = T.random ~seed:(seed + 1) (Op_spec.b_shape spec) in
      (a, b, R.gemm spec ~a ~b)
  in
  let inputs =
    List.map
      (fun (bf : Alcop_ir.Buffer.t) ->
        match bf.Alcop_ir.Buffer.name with
        | "A" -> ("A", a)
        | "B" -> ("B", b)
        | other -> invalid_arg ("direct_check: unexpected input " ^ other))
      c.Compiler.kernel.Alcop_ir.Kernel.inputs
  in
  let outputs =
    Alcop_gpusim.Interp.run ~groups:c.Compiler.groups c.Compiler.kernel ~inputs
  in
  let outputs =
    match c.Compiler.lowered.Lower.reduce with
    | None -> outputs
    | Some reduce -> Alcop_gpusim.Interp.run reduce ~inputs:outputs
  in
  match outputs with
  | [ (_, actual) ] ->
    if plant then begin
      let d = actual.T.data in
      Bigarray.Array1.set d 0 (Bigarray.Array1.get d 0 +. 1.0)
    end;
    T.max_abs_diff actual expected
  | _ -> infinity

let verify_space =
  let setup () =
    Passman.set_validate_ir true;
    let points =
      Array.concat
        (List.map
           (fun spec ->
             Array.map
               (fun params -> { spec; params; extra_regs = 0 })
               (Alcop_tune.Space.enumerate spec))
           verify_ops)
    in
    let served () = 0 in
    let diffs = Array.make (Array.length points) nan in
    let bests (log : Evals.t) =
      List.map
        (fun spec ->
          let b = ref infinity in
          for i = 0 to log.Evals.n - 1 do
            match Evals.cost_opt log i with
            | Some c when points.(i).spec == spec && c < !b -> b := c
            | _ -> ()
          done;
          !b)
        verify_ops
    in
    { ops = verify_ops;
      capacity = Array.length points;
      reset = (fun () -> Array.fill diffs 0 (Array.length diffs) nan);
      round =
        (fun log ->
          Array.iteri
            (fun i pt ->
              ignore
                (Evals.eval log ~served (fun () -> compile_and_verify diffs i pt)))
            points);
      after_round =
        (fun chk log ->
          for i = 0 to log.Evals.n - 1 do
            Checks.expect_eval chk log i (Float.is_nan diffs.(i))
              "%s %s: Compiler.verify differs from the host reference by %g"
              points.(i).spec.Op_spec.name
              (Params.to_string points.(i).params) diffs.(i)
          done;
          let ok =
            Checks.indices log.Evals.n (fun i -> Bytes.get log.Evals.status i = 'o')
          in
          Array.iteri
            (fun k i ->
              let pt = points.(i) in
              match Compiler.compile ~hw pt.params pt.spec with
              | Error e ->
                Checks.expect_eval chk log i false "%s %s: recompile failed: %s"
                  pt.spec.Op_spec.name (Params.to_string pt.params)
                  (Compiler.error_to_string e)
              | Ok c ->
                let diff =
                  direct_check
                    ~plant:(k = 0 && chk.Checks.plant = Checks.Element)
                    c pt.spec (Random.State.bits chk.Checks.rng)
                in
                Checks.expect_eval chk log i (diff <= 1e-6)
                  "%s %s: interpreter differs from the host reference by %g"
                  pt.spec.Op_spec.name (Params.to_string pt.params) diff)
            (Checks.sample chk 6 ok));
      best_cycles = (fun log -> Meter.geomean (bests log));
      points;
      session = (fun () -> None) }
  in
  { name = "verify-space"; setup }

let all =
  [ fig10; tune_analytical_xgb; verify_space ]

let find name = List.find_opt (fun w -> w.name = name) all
