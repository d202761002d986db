(* Per-layer numbers for the traced run. Nothing here runs inside the
   measured passes: the program's own counters are read around each
   pass, and a seeded sample of the workload's points is replayed
   through each layer's public function afterwards, timing every call
   and counting the minor words it allocates. *)

open Alcop
open Alcop_sched
module W = Workloads
module Params = Alcop_perfmodel.Params
module Timing = Alcop_gpusim.Timing

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* ---- counters read around one pass ---- *)

type snapshot = {
  session : Session.stats option;
  reuse : int * int;
  gc : Gc.stat;
}

let snapshot (inst : W.inst) =
  { session = Option.map Session.stats (inst.W.session ());
    reuse = Timing.wave_reuse_stats ();
    gc = Gc.quick_stat () }

let counters ~before ~after =
  let fi = float_of_int in
  let sess f =
    match before.session, after.session with
    | Some b, Some a -> fi (f a - f b)
    | _ -> 0.0
  in
  let hits = sess (fun s -> s.Session.hits)
  and misses = sess (fun s -> s.Session.misses) in
  let gb = before.gc and ga = after.gc in
  [ m "session.hits" "count" hits;
    m "session.misses" "count" misses;
    m "session.evictions" "count" (sess (fun s -> s.Session.evictions));
    m "session.hit_ratio" "ratio"
      (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    m "timing.wave_reuse_hits" "count" (fi (fst after.reuse - fst before.reuse));
    m "timing.wave_reuse_misses" "count"
      (fi (snd after.reuse - snd before.reuse));
    m "gc.minor_collections" "count"
      (fi (ga.Gc.minor_collections - gb.Gc.minor_collections));
    m "gc.major_collections" "count"
      (fi (ga.Gc.major_collections - gb.Gc.major_collections));
    m "gc.promoted_mwords" "Mwords"
      ((ga.Gc.promoted_words -. gb.Gc.promoted_words) /. 1e6);
    m "gc.top_heap_mib" "MiB"
      (fi (ga.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0) ]

(* ---- replay ---- *)

type series = { mutable ns : float list; mutable words : float list }

let series () = { ns = []; words = [] }

let timed s f =
  let w0 = Gc.minor_words () in
  let t0 = Meter.now_ns () in
  let r = f () in
  let t1 = Meter.now_ns () in
  let w1 = Gc.minor_words () in
  s.ns <- float_of_int (t1 - t0) :: s.ns;
  s.words <- (w1 -. w0) :: s.words;
  r

let med l = Meter.median_list l

(* Up to [n] points of [pool] that compile, drawn with [rng]. *)
let compiled_sample rng n (pool : W.point array) =
  let rec go acc k tries =
    if k = n || tries = 0 || Array.length pool = 0 then List.rev acc
    else begin
      let pt = pool.(Random.State.int rng (Array.length pool)) in
      match
        Compiler.compile ~hw:W.hw ~extra_regs_per_thread:pt.W.extra_regs
          pt.W.params pt.W.spec
      with
      | Ok c -> go ((pt, c) :: acc) (k + 1) (tries - 1)
      | Error _ -> go acc k (tries - 1)
    end
  in
  go [] 0 (16 * n)

let verify_pool =
  lazy
    (Array.concat
       (List.map
          (fun spec ->
            Array.map
              (fun params -> { W.spec; params; extra_regs = 0 })
              (Alcop_tune.Space.enumerate spec))
          W.verify_ops))

(* The analytical pre-training of the analytical+XGB tuner on the first
   operator's ALCOP space: the duration of the tuner's own
   "tuner.pretrain" span in one real [Tuner.run], read through a memory
   sink. The budget is 1, so the run past pre-training is short. *)
let tuner_pretrain_s spec =
  let sink, events = Alcop_obs.Obs.memory_sink () in
  Alcop_obs.Obs.add_sink sink;
  let space = Variants.space Variants.alcop spec in
  let evaluate =
    Variants.evaluator ~hw:W.hw ~session:(Session.create ~hw:W.hw ())
      Variants.alcop spec
  in
  Fun.protect ~finally:Alcop_obs.Obs.reset (fun () ->
      ignore
        (Alcop_tune.Tuner.run ~hw:W.hw ~spec ~space ~evaluate ~budget:1
           ~seed:W.tune_seed Alcop_tune.Tuner.Analytical_xgb);
      List.fold_left
        (fun acc -> function
          | Alcop_obs.Obs.Span_end { name = "tuner.pretrain"; dur; _ } -> dur
          | _ -> acc)
        nan (events ()))

let reps = 5

let replay ~seed ~dir (inst : W.inst) =
  let rng = Random.State.make [| seed; 0x1a7e |] in
  let sample = compiled_sample rng 8 inst.W.points in
  let key = series () and lower = series () and pipe = series ()
  and trace = series () and timing = series () and model = series ()
  and hit = series () and sread = series () and swrite = series ()
  and verify = series () in
  let events = ref [] in
  let scratch = Store.create ~root:(Filename.concat dir "replay-store") () in
  List.iter
    (fun ((pt : W.point), (c : Compiler.compiled)) ->
      let spec = pt.W.spec and params = pt.W.params
      and extra = pt.W.extra_regs in
      let session = Session.create ~hw:W.hw () in
      ignore (Session.evaluate session ~extra_regs_per_thread:extra params spec);
      let record =
        Artifact.to_string
          (Artifact.Success
             { Artifact.latency_cycles = c.Compiler.latency_cycles;
               timing = c.Compiler.timing; gauges = [] })
      in
      for _ = 1 to reps do
        let k =
          timed key (fun () ->
              Fingerprint.compile_key ~hw:W.hw ~extra_regs_per_thread:extra
                params spec)
        in
        ignore (timed lower (fun () -> Lower.run c.Compiler.schedule));
        ignore
          (timed pipe (fun () ->
               Alcop_pipeline.Pass.run ~hw:W.hw
                 ~hints:c.Compiler.lowered.Lower.hints
                 c.Compiler.lowered.Lower.kernel));
        let program =
          timed trace (fun () ->
              Alcop_gpusim.Trace.extract_program ~groups:c.Compiler.groups
                c.Compiler.kernel)
        in
        events := float_of_int (Alcop_gpusim.Trace.length program) :: !events;
        ignore (timed timing (fun () -> Timing.run c.Compiler.timing_request));
        ignore
          (timed model (fun () ->
               Alcop_perfmodel.Model.predict_cycles W.hw spec params));
        ignore
          (timed hit (fun () ->
               Session.evaluate session ~extra_regs_per_thread:extra params spec));
        let hex = Fingerprint.to_hex k in
        timed swrite (fun () -> Store.write scratch ~ns:"replay" hex record);
        ignore (timed sread (fun () -> Store.read scratch ~ns:"replay" hex))
      done)
    sample;
  List.iter
    (fun (_, c) ->
      for _ = 1 to 2 do
        ignore (timed verify (fun () -> Compiler.verify c))
      done)
    (compiled_sample rng 4 (Lazy.force verify_pool));
  let us s = med s.ns *. 1e-3 and words s = med s.words in
  let per_event =
    med
      (List.map2 (fun ns ev -> ns /. Float.max 1.0 ev) timing.ns !events)
  in
  [ m "fingerprint.key_us" "us" (us key);
    m "fingerprint.key_words" "words" (words key);
    m "session.hit_us" "us" (us hit);
    m "session.hit_words" "words" (words hit);
    m "store.read_us" "us" (us sread);
    m "store.write_us" "us" (us swrite);
    m "lower.us" "us" (us lower);
    m "lower.words" "words" (words lower);
    m "pipeline.us" "us" (us pipe);
    m "pipeline.words" "words" (words pipe);
    m "trace.us" "us" (us trace);
    m "trace.words" "words" (words trace);
    m "trace.events" "count" (med !events);
    m "timing.us" "us" (us timing);
    m "timing.words" "words" (words timing);
    m "timing.ns_per_event" "ns" per_event;
    m "model.predict_us" "us" (us model);
    m "interp.verify_ms" "ms" (med verify.ns *. 1e-6);
    m "interp.verify_words" "words" (words verify);
    m "tuner.pretrain_s" "s" (tuner_pretrain_s (List.hd inst.W.ops)) ]
