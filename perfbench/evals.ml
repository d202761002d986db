(* The log of one pass's schedule evaluations. It is allocated at set-up
   with room for the whole pass, so the measured loop adds only the
   timing reads and two counter reads per evaluation to what the calls
   under test allocate. *)

type t = {
  mutable n : int;
  lat_ns : float array;  (** host time of each evaluation *)
  hit : Bytes.t;  (** ['h'] when answered by a memo tier, else ['m'] *)
  status : Bytes.t;
      (** ['o'] measured, ['r'] rejected by the compiler, ['f'] failed *)
  cost : float array;  (** simulated cycles; [nan] unless ['o'] *)
}

let create capacity =
  { n = 0;
    lat_ns = Array.make capacity 0.0;
    hit = Bytes.make capacity 'm';
    status = Bytes.make capacity 'o';
    cost = Array.make capacity nan }

let reset t = t.n <- 0

let reported = ref 0

(* Time [f ()] and class it as a hit when [served ()] grew across the
   call. A raise, or a cycle count that is not finite and positive, is a
   failed operation; the caller (a tuner) sees it as a failed compile. *)
let eval t ~served f =
  let i = t.n in
  if i >= Array.length t.lat_ns then invalid_arg "Evals.eval: log is full";
  let s0 = served () in
  let failure = ref None in
  let t0 = Meter.now_ns () in
  let r = try f () with e -> failure := Some e; None in
  let t1 = Meter.now_ns () in
  let hit = served () > s0 in
  t.lat_ns.(i) <- float_of_int (t1 - t0);
  Bytes.set t.hit i (if hit then 'h' else 'm');
  t.n <- i + 1;
  match !failure, r with
  | Some e, _ ->
    Bytes.set t.status i 'f';
    t.cost.(i) <- nan;
    if !reported < 5 then begin
      incr reported;
      Printf.eprintf "evaluation %d failed: %s\n%!" i (Printexc.to_string e)
    end;
    None
  | None, None ->
    Bytes.set t.status i 'r';
    t.cost.(i) <- nan;
    None
  | None, Some c ->
    if Float.is_finite c && c > 0.0 then begin
      Bytes.set t.status i 'o';
      t.cost.(i) <- c
    end
    else begin
      Bytes.set t.status i 'f';
      t.cost.(i) <- nan
    end;
    r

let count t ch bytes =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if Bytes.get bytes i = ch then incr k
  done;
  !k

let rejected t = count t 'r' t.status
let failed t = count t 'f' t.status
let hits t = count t 'h' t.hit

let cost_opt t i = if Bytes.get t.status i = 'o' then Some t.cost.(i) else None

(* Latencies (µs) of the evaluations whose hit flag is [ch], or of all
   of them. *)
let latencies_us ?only t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    match only with
    | Some ch when Bytes.get t.hit i <> ch -> ()
    | _ -> acc := (t.lat_ns.(i) *. 1e-3) :: !acc
  done;
  Array.of_list !acc

let total_eval_s t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.lat_ns.(i)
  done;
  !s *. 1e-9

(* Bit-for-bit equality of two cycle counts ([None] = rejected). *)
let same_cost a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false
