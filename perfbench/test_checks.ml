(* The benchmark's output checks must accept correct outputs and reject
   each kind of corruption: one changed cell, a dropped record, a
   duplicated response. *)

let fail fmt = Printf.ksprintf failwith fmt

let expect name cond = if not cond then fail "check failed: %s" name

let sudoku () =
  let puzzle = Checks.cells Sudoku.Puzzles.easy in
  expect "easy has one solution" (Checks.count_solutions puzzle = 1);
  let sol =
    match Checks.first_solution puzzle with Some s -> s | None -> fail "no solution"
  in
  expect "solution accepted" (Checks.puzzle_outputs_ok ~puzzle ~expected:1 [ sol ]);
  (* One changed cell: a swap of two values in the first empty cell's
     row keeps the row a permutation but breaks columns. *)
  let c = ref 0 in
  while puzzle.(!c) <> 0 do
    incr c
  done;
  let bad = Array.copy sol in
  bad.(!c) <- (sol.(!c) mod 9) + 1;
  expect "changed cell rejected" (not (Checks.puzzle_outputs_ok ~puzzle ~expected:1 [ bad ]));
  (* A changed given is rejected even when the board stays valid. *)
  let relabelled = Array.map (fun v -> (v mod 9) + 1) sol in
  expect "board ignoring givens rejected"
    (not (Checks.puzzle_outputs_ok ~puzzle ~expected:1 [ relabelled ]));
  expect "missing solution rejected" (not (Checks.puzzle_outputs_ok ~puzzle ~expected:1 []));
  expect "repeated solution rejected"
    (not (Checks.puzzle_outputs_ok ~puzzle ~expected:2 [ sol; sol ]));
  (* The counter agrees with a hand-checkable case: two free cells that
     can be swapped. *)
  let open_pair = Array.copy sol in
  open_pair.(0) <- 0;
  expect "one hole, one solution" (Checks.count_solutions open_pair = 1);
  expect "empty 4x4 has 288 solutions" (Checks.count_solutions (Array.make 16 0) = 288)

let shard () =
  let inputs = [| 0; 5; 17; 1024 + 3 |] in
  let out x = Snet.Record.with_tag "z" (Checks.shard_z x) Snet.Record.empty in
  let good = Array.to_list (Array.map out inputs) in
  expect "shard outputs accepted" (Checks.shard_mismatches ~inputs good = 0);
  expect "z formula" (Checks.shard_z 5 = (16 * 10) + 5);
  expect "dropped record rejected" (Checks.shard_mismatches ~inputs (List.tl good) = 1);
  expect "duplicated record rejected"
    (Checks.shard_mismatches ~inputs (List.hd good :: List.tl good @ [ List.hd good ]) = 1);
  let stamped = Snet.Record.with_tag "dist_seq" 3 (out 0) in
  expect "left-over stamp rejected"
    (Checks.shard_mismatches ~inputs (stamped :: List.tl good) > 0)

let serve () =
  let offset = 12345 in
  let resp i =
    Snet.Record.with_tag "y" (Checks.request_x ~offset i + 1) Snet.Record.empty
  in
  let seen = Array.make 3 0 in
  List.iter
    (fun i -> expect "response matches" (Checks.tally_response ~offset seen (resp i) = 0))
    [ 0; 1; 2 ];
  expect "each answered once" (Checks.not_once seen 3 = 0);
  expect "duplicated response rejected"
    (Checks.tally_response ~offset seen (resp 1) = 0 && Checks.not_once seen 3 = 1);
  let wrong = Snet.Record.with_tag "y" (Checks.request_x ~offset 0 + 2) Snet.Record.empty in
  expect "wrong value rejected" (Checks.tally_response ~offset seen wrong = 1);
  let missing = Array.make 3 0 in
  ignore (Checks.tally_response ~offset missing (resp 0) : int);
  expect "unanswered requests rejected" (Checks.not_once missing 3 = 2)

let journal () =
  let dir = "perfbench-journal-test" in
  let w = Durable.Journal.open_writer dir in
  let append kind = ignore (Durable.Journal.append w ~kind ~edge:"serve:s0" "frame" : int) in
  append Durable.Journal.Input;
  append Durable.Journal.Input;
  append Durable.Journal.Delivered;
  Durable.Journal.close w;
  expect "matching journal accepted"
    (Checks.journal_ok ~dir ~requests:2 ~responses:1 = Ok ());
  expect "missing delivery rejected"
    (Result.is_error (Checks.journal_ok ~dir ~requests:2 ~responses:2));
  expect "missing input rejected"
    (Result.is_error (Checks.journal_ok ~dir ~requests:3 ~responses:1));
  Sys.remove (Durable.Journal.journal_path dir);
  Sys.rmdir dir

let () =
  sudoku ();
  shard ();
  serve ();
  journal ();
  print_endline "perfbench checks: ok"
