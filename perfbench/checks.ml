(* Output checks made apart from the program: nothing here calls
   Sudoku.Solver, Rules or Propagate, so a fault in the program's
   search cannot also hide in its check. *)

(* {1 Sudoku} *)

(* A board as a flat row-major array of side² cells, 0 = empty. *)
let cells (b : Sudoku.Board.t) = Sacarray.Nd.to_flat_array b

let isqrt n =
  let r = int_of_float (Float.sqrt (float_of_int n)) in
  if (r + 1) * (r + 1) <= n then r + 1 else r

(* Backtracking solution enumeration over row/column/box bitmasks,
   always branching on the empty cell with the fewest candidates.
   [f] sees every solution; enumeration stops after [limit]. *)
let enumerate ?(limit = max_int) (g : int array) (f : int array -> unit) =
  let side = isqrt (Array.length g) in
  let n = isqrt side in
  if side * side <> Array.length g || n * n <> side then
    invalid_arg "Checks.enumerate: not a square board";
  let g = Array.copy g in
  let row = Array.make side 0 and col = Array.make side 0
  and box = Array.make side 0 in
  let bx i j = (i / n * n) + (j / n) in
  let ok = ref true in
  Array.iteri
    (fun c v ->
      if v <> 0 then begin
        let i = c / side and j = c mod side and m = 1 lsl v in
        if row.(i) land m <> 0 || col.(j) land m <> 0 || box.(bx i j) land m <> 0
        then ok := false;
        row.(i) <- row.(i) lor m;
        col.(j) <- col.(j) lor m;
        box.(bx i j) <- box.(bx i j) lor m
      end)
    g;
  let all = ((1 lsl side) - 1) lsl 1 in
  let popcount x =
    let rec go x k = if x = 0 then k else go (x land (x - 1)) (k + 1) in
    go x 0
  in
  let found = ref 0 in
  let rec search () =
    if !found < limit then begin
      let best = ref (-1) and best_n = ref max_int and best_m = ref 0 in
      Array.iteri
        (fun c v ->
          if v = 0 && !best_n > 0 then begin
            let i = c / side and j = c mod side in
            let m = all land lnot (row.(i) lor col.(j) lor box.(bx i j)) in
            let k = popcount m in
            if k < !best_n then begin
              best := c;
              best_n := k;
              best_m := m
            end
          end)
        g;
      if !best < 0 then begin
        incr found;
        f (Array.copy g)
      end
      else
        let c = !best in
        let i = c / side and j = c mod side in
        for v = 1 to side do
          let m = 1 lsl v in
          if !best_m land m <> 0 then begin
            g.(c) <- v;
            row.(i) <- row.(i) lor m;
            col.(j) <- col.(j) lor m;
            box.(bx i j) <- box.(bx i j) lor m;
            search ();
            g.(c) <- 0;
            row.(i) <- row.(i) land lnot m;
            col.(j) <- col.(j) land lnot m;
            box.(bx i j) <- box.(bx i j) land lnot m
          end
        done
    end
  in
  if !ok then search ();
  !found

let count_solutions g = enumerate g ignore

let first_solution g =
  let r = ref None in
  ignore (enumerate ~limit:1 g (fun s -> r := Some s) : int);
  !r

(* A complete, valid board that keeps every given of [puzzle]. *)
let solves ~puzzle sol =
  let side = isqrt (Array.length puzzle) in
  let n = isqrt side in
  Array.length sol = Array.length puzzle
  && Array.for_all2 (fun p s -> p = 0 || p = s) puzzle sol
  && Array.for_all (fun v -> v >= 1 && v <= side) sol
  &&
  let unit_ok cell =
    List.for_all
      (fun u ->
        let seen = Array.make (side + 1) false in
        let ok = ref true in
        for k = 0 to side - 1 do
          let v = sol.(cell u k) in
          if seen.(v) then ok := false;
          seen.(v) <- true
        done;
        !ok)
      (List.init side Fun.id)
  in
  unit_ok (fun i k -> (i * side) + k)
  && unit_ok (fun j k -> (k * side) + j)
  && unit_ok (fun b k ->
         let i = (b / n * n) + (k / n) and j = (b mod n * n) + (k mod n) in
         (i * side) + j)

(* The outputs for one puzzle: each a distinct solution of it, and as
   many as the puzzle has. *)
let puzzle_outputs_ok ~puzzle ~expected outs =
  List.length outs = expected
  && List.for_all (solves ~puzzle) outs
  && List.length (List.sort_uniq compare outs) = expected

(* {1 Sharded pipeline} *)

let shard_z x = (((3 * x) + 1) * 10) + (((x mod 8) + 8) mod 8)

(* Records the run got wrong: outputs that are not exactly one [<z>]
   tag, plus the multiset difference between expected and produced
   [z] values (a dropped record counts once, a duplicate once). *)
let shard_mismatches ~inputs (outs : Snet.Record.t list) =
  let malformed = ref 0 in
  let zs =
    List.filter_map
      (fun r ->
        match (Snet.Record.tags r, Snet.Record.fields r) with
        | [ ("z", z) ], [] -> Some z
        | _ ->
            incr malformed;
            None)
      outs
  in
  let want = Array.map shard_z inputs and got = Array.of_list zs in
  Array.sort compare want;
  Array.sort compare got;
  let rec diff i j acc =
    if i = Array.length want then acc + (Array.length got - j)
    else if j = Array.length got then acc + (Array.length want - i)
    else
      let c = compare want.(i) got.(j) in
      if c = 0 then diff (i + 1) (j + 1) acc
      else if c < 0 then diff (i + 1) j (acc + 1)
      else diff i (j + 1) (acc + 1)
  in
  !malformed + diff 0 0 0

(* {1 Ping service} *)

(* Request [i] of a run carries [x = i * stride + offset]; its one
   correct response is [y = x + 1]. *)
let stride = 1_000_003

let request_x ~offset i = (i * stride) + offset

(* Tally responses into [seen] (one cell per request); returns the
   count of responses that match no request. *)
let tally_response ~offset seen (r : Snet.Record.t) =
  match Snet.Record.tag "y" r with
  | Some y when y - 1 - offset >= 0 && (y - 1 - offset) mod stride = 0 ->
      let i = (y - 1 - offset) / stride in
      if i < Array.length seen then begin
        seen.(i) <- seen.(i) + 1;
        0
      end
      else 1
  | _ -> 1

(* Requests answered other than exactly once, among the first [n]. *)
let not_once seen n =
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if seen.(i) <> 1 then incr bad
  done;
  !bad

(* The journal of a drained server: one Input per accepted request,
   one Delivered per response, no damage. *)
let journal_ok ~dir ~requests ~responses =
  let entries, damage = Durable.Journal.read_dir dir in
  let count k =
    List.length (List.filter (fun e -> e.Durable.Journal.kind = k) entries)
  in
  let inputs = count Durable.Journal.Input
  and delivered = count Durable.Journal.Delivered in
  if damage <> None || inputs <> requests || delivered <> responses then
    Error
      (Printf.sprintf "journal: %d inputs for %d requests, %d delivered for %d \
                       responses, damage %s"
         inputs requests delivered responses
         (Option.value damage ~default:"none"))
  else Ok ()
