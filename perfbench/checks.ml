(* Output checks run after each measured pass, and the wrong answers the
   self-test plants in them. A failed check makes the run incorrect and
   counts one failed operation. *)

type plant =
  | No_plant
  | Cost      (** one recorded cycle count is one cycle off *)
  | Element   (** one interpreter output element is changed *)
  | Bests     (** two variants' exhaustive bests are swapped *)
  | Dup       (** one tuner trial repeats another's point *)

let plant_of_string = function
  | "none" -> Some No_plant
  | "cost" -> Some Cost
  | "element" -> Some Element
  | "bests" -> Some Bests
  | "dup" -> Some Dup
  | _ -> None

type t = {
  plant : plant;
  rng : Random.State.t;
  mutable failed : int;  (** failed operations not tied to one evaluation *)
  mutable passed : int;
  mutable bad : int;  (** failed output checks *)
  mutable messages : string list;
}

let create ~plant ~seed =
  { plant; rng = Random.State.make [| seed; 0x5eed |]; failed = 0;
    passed = 0; bad = 0; messages = [] }

let note t m = if List.length t.messages < 8 then t.messages <- m :: t.messages

(* An output check not tied to one evaluation. *)
let expect t cond fmt =
  Printf.ksprintf
    (fun m ->
      if cond then t.passed <- t.passed + 1
      else begin
        t.bad <- t.bad + 1;
        t.failed <- t.failed + 1;
        note t m
      end)
    fmt

(* An output check on evaluation [i] of a pass's log: on failure the
   evaluation counts as a failed operation. *)
let expect_eval t (log : Evals.t) i cond fmt =
  Printf.ksprintf
    (fun m ->
      if cond then t.passed <- t.passed + 1
      else begin
        t.bad <- t.bad + 1;
        Bytes.set log.Evals.status i 'f';
        note t m
      end)
    fmt

(* Up to [n] distinct elements of [xs], drawn with the check seed. *)
let sample t n (xs : 'a array) =
  let xs = Array.copy xs in
  let len = Array.length xs in
  let n = min n len in
  for i = 0 to n - 1 do
    let j = i + Random.State.int t.rng (len - i) in
    let x = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- x
  done;
  Array.sub xs 0 n

(* Indices [0, n) of a log whose entries satisfy [p]. *)
let indices n p =
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if p i then acc := i :: !acc
  done;
  Array.of_list !acc
