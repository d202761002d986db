(* Clocks, allocation counters, order statistics and process readings
   shared by every workload. Nothing here calls into the compiler. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_of_ns ns = float_of_int ns *. 1e-9

(* OCaml heap words allocated so far: minor allocations plus direct
   major allocations. Exact and repeatable on a single domain.
   [Gc.minor_words] counts the live minor heap too; the minor count of
   [Gc.counters] would depend on when the last minor collection ran. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Linear interpolation between closest ranks, the same rule as numpy's
   default and Python's statistics.quantiles ("inclusive"). *)
let quantile (xs : float array) q =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let median_list l = median (Array.of_list l)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
       /. float_of_int (List.length xs))

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
      else scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
