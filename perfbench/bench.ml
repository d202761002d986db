(* The benchmark driver: one workload, on one OCaml domain, for a given
   number of seconds. Prints a summary line and, last, one JSON object
   with the end-to-end metrics (or, with --trace 1, the per-layer
   metrics). See README.md in this directory. *)

module W = Workloads

let usage =
  "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
   [--setup-probe NS] [--plant KIND]"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  probe : int option;  (** monotonic ns at which our parent spawned us *)
  plant : Checks.plant;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--setup-probe" :: v :: rest ->
      go { a with probe = Some (int_of_string v) } rest
    | "--plant" :: v :: rest ->
      (match Checks.plant_of_string v with
       | Some p -> go { a with plant = p } rest
       | None -> die "unknown plant %s" v)
    | x :: _ -> die "unexpected argument %s\nusage: %s" x usage
  in
  try
    go
      { workload = ""; seed = 1; seconds = 10.0; trace = false; probe = None;
        plant = Checks.No_plant }
      (List.tl (Array.to_list argv))
  with Failure _ -> die "bad number\nusage: %s" usage

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

type pass = {
  wall_s : float;
  alloc_words : float;
  p50_us : float;
  p90_us : float;
  self_s : float;
}

(* [setup_s] as a user pays it: the time from spawning a cold copy of
   this benchmark, set up for the same workload, to the start of its
   measured phase. The run takes three probes after each pass, outside
   the timed part, so that the median spans the run's whole window and
   one slow spawn or a slow stretch of the host does not move it. *)
let probe_setup_s workload =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Meter.now_ns () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--workload"; workload; "--setup-probe";
         string_of_int t0 |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  match Unix.waitpid [] pid, line with
  | (_, Unix.WEXITED 0), Some ns -> Meter.seconds_of_ns (int_of_string ns)
  | _ -> die "set-up probe of %s failed" workload

let () =
  let a = parse Sys.argv in
  let w =
    match W.find a.workload with
    | Some w -> w
    | None ->
      die "unknown workload %S; one of: %s" a.workload
        (String.concat ", " (List.map (fun w -> w.W.name) W.all))
  in
  (* fixed width, so the path's length does not vary with the pid *)
  let dir =
    Filename.concat ".perfbench-tmp" (Printf.sprintf "run-%08d" (Unix.getpid ()))
  in
  Meter.mkdir_p dir;
  at_exit (fun () ->
      try
        Meter.rm_rf dir;
        Unix.rmdir (Filename.dirname dir)
      with _ -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let inst = w.W.setup () in
  let log = Evals.create inst.W.capacity in
  let chk = Checks.create ~plant:a.plant ~seed:a.seed in
  (* A set-up probe reports the time from its spawn to here, where the
     measured phase starts, and stops. See [probe_setup_s]. *)
  Option.iter
    (fun t0 ->
      Printf.printf "%d\n" (Meter.now_ns () - t0);
      exit 0)
    a.probe;
  (* Each pass starts after a full major collection, so none pays for
     the garbage of the one before it. *)
  let passes = ref [] in
  let attempted = ref 0 and failed = ref 0 and rejected = ref 0 in
  let hit_us = ref [||] and miss_us = ref [||] and hits = ref 0 in
  let peak_rss = ref 0.0 and best = ref nan in
  let trace_s = ref 0 in
  let last_counters = ref [] in
  let setup_times = ref [] in
  let phase_start = Meter.now_ns () in
  let rec rounds () =
    let round_start = Meter.now_ns () in
    inst.W.reset ();
    Evals.reset log;
    Gc.full_major ();
    let before =
      if a.trace then begin
        let t = Meter.now_ns () in
        let s = Layers.snapshot inst in
        trace_s := !trace_s + (Meter.now_ns () - t);
        Some s
      end
      else None
    in
    let w0 = Meter.allocated_words () in
    let t0 = Meter.now_ns () in
    inst.W.round log;
    let t1 = Meter.now_ns () in
    let w1 = Meter.allocated_words () in
    (* memory is read on the first pass, before any check has run:
       later passes start from a heap the checks have touched *)
    if !passes = [] then peak_rss := Meter.peak_rss_mib ();
    (match before with
     | Some before ->
       let t = Meter.now_ns () in
       let after = Layers.snapshot inst in
       last_counters := Layers.counters ~before ~after;
       trace_s := !trace_s + (Meter.now_ns () - t)
     | None -> ());
    let wall = Meter.seconds_of_ns (t1 - t0) in
    let misses = Evals.latencies_us ~only:'m' log in
    passes :=
      { wall_s = wall;
        alloc_words = w1 -. w0;
        p50_us = Meter.quantile misses 0.5;
        p90_us = Meter.quantile misses 0.9;
        self_s = wall -. Evals.total_eval_s log }
      :: !passes;
    hit_us := Evals.latencies_us ~only:'h' log;
    miss_us := misses;
    hits := Evals.hits log;
    best := inst.W.best_cycles log;
    inst.W.after_round chk log;
    attempted := !attempted + log.Evals.n;
    rejected := !rejected + Evals.rejected log;
    failed := !failed + Evals.failed log;
    for _ = 1 to 3 do
      setup_times := probe_setup_s w.W.name :: !setup_times
    done;
    let now = Meter.now_ns () in
    let elapsed = Meter.seconds_of_ns (now - phase_start)
    and last = Meter.seconds_of_ns (now - round_start) in
    if elapsed +. last <= a.seconds then rounds ()
  in
  rounds ();
  let attempted = !attempted and failed = !failed + chk.Checks.failed in
  let passes = Array.of_list (List.rev !passes) in
  let over f = Meter.median (Array.map f passes) in
  let e2e =
    [ Layers.m "wall_s" "s" (over (fun p -> p.wall_s));
      Layers.m "setup_s" "s" (Meter.median_list !setup_times);
      Layers.m "peak_rss_mib" "MiB" !peak_rss;
      Layers.m "alloc_mwords" "Mwords" (passes.(0).alloc_words /. 1e6);
      Layers.m "best_cycles" "cycles" !best ]
  in
  let metrics =
    if not a.trace then e2e
    else begin
      let t = Meter.now_ns () in
      let replayed =
        Layers.replay ~seed:a.seed ~dir inst
      in
      let overhead =
        Meter.seconds_of_ns (!trace_s + (Meter.now_ns () - t))
      in
      replayed @ !last_counters
      @ [ Layers.m "eval.miss_us_p50" "us" (over (fun p -> p.p50_us));
          Layers.m "eval.miss_us_p90" "us" (over (fun p -> p.p90_us));
          Layers.m "tuner.self_s" "s" (over (fun p -> p.self_s));
          Layers.m "tracing.overhead_s" "s" overhead ]
    end
  in
  let pct xs q = if Array.length xs = 0 then nan else Meter.quantile xs q in
  Printf.printf
    "%s: %d pass(es) of %d evaluations (%d hits, %d misses); attempted %d, \
     rejected %d, failed %d; hit p50 %.1f us p95 %.1f us; miss p50 %.1f us \
     p95 %.1f us; checks %d passed, %d failed\n"
    w.W.name (Array.length passes) log.Evals.n !hits (log.Evals.n - !hits)
    attempted !rejected failed (pct !hit_us 0.5) (pct !hit_us 0.95)
    (pct !miss_us 0.5) (pct !miss_us 0.95) chk.Checks.passed chk.Checks.bad;
  Printf.printf "  pass seconds: %s; set-up probe seconds: %s\n"
    (String.concat " "
       (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" p.wall_s) passes)))
    (String.concat " "
       (List.rev_map (Printf.sprintf "%.4f") !setup_times));
  List.iter (fun m -> Printf.printf "  %s\n" m) (List.rev chk.Checks.messages);
  let body =
    String.concat ", "
      (List.map
         (fun (x : Layers.metric) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
             x.Layers.name (json_number x.Layers.value)
             x.Layers.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (chk.Checks.bad = 0) attempted failed body
