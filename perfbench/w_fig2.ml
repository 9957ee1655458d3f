(* fig2-stream: the paper's Fig. 2 net with data-parallel with-loops
   inside its boxes, on Engine_conc, fed a seeded stream of relabelled
   corpus puzzles. *)

open Measure
module Conc = Snet.Engine_conc

(* Every corpus puzzle, with its solution count from the independent
   counter (relabelling preserves it). *)
let corpus =
  lazy
    (List.map
       (fun e ->
         let b = e.Sudoku.Puzzles.board in
         (e, Checks.count_solutions (Checks.cells b)))
       Sudoku.Puzzles.all)

(* The latency class: one difficulty, so that the mix of puzzles does
   not decide the median. *)
let latency_class = Sudoku.Puzzles.Easy

type fed = { puzzle : int array; expected : int }

(* A stream of puzzles tagged <pid>, so each output names its puzzle
   (the tag flow-inherits through every box and filter). *)
type stream = {
  rng : Random.State.t;
  fed : (int, fed) Hashtbl.t;
  mutable next_pid : int;
}

let stream seed =
  { rng = Random.State.make [| seed; 2 |]; fed = Hashtbl.create 64; next_pid = 0 }

let make_record st (e, expected) =
  let b =
    Sudoku.Generate.relabel ~seed:(Random.State.bits st.rng) e.Sudoku.Puzzles.board
  in
  let pid = st.next_pid in
  st.next_pid <- pid + 1;
  Hashtbl.replace st.fed pid { puzzle = Checks.cells b; expected };
  Snet.Record.with_tag "pid" pid (Sudoku.Boxes.inject_board b)

(* One round of the throughput phase: every corpus puzzle once, in
   corpus order, each freshly relabelled. The order is fixed because
   where the longest puzzle falls in a round moves the round's time. *)
let round_records st = List.map (make_record st) (Lazy.force corpus)

(* Check the outputs of the given pids; returns how many puzzles got
   wrong outputs. *)
let check st pids outs =
  let by_pid = Hashtbl.create 16 in
  let stray = ref 0 in
  List.iter
    (fun r ->
      match Snet.Record.tag "pid" r with
      | Some p when List.mem p pids ->
          Hashtbl.replace by_pid p
            (Checks.cells (Sudoku.Boxes.board_of_record r)
            :: Option.value ~default:[] (Hashtbl.find_opt by_pid p))
      | _ -> incr stray)
    outs;
  let bad =
    List.fold_left
      (fun bad p ->
        let f = Hashtbl.find st.fed p in
        Hashtbl.remove st.fed p;
        let outs = Option.value ~default:[] (Hashtbl.find_opt by_pid p) in
        if Checks.puzzle_outputs_ok ~puzzle:f.puzzle ~expected:f.expected outs
        then bad
        else bad + 1)
      0 pids
  in
  bad + !stray

let pid_of r = Snet.Record.tag_exn "pid" r

(* An engine instance whose outputs are read round by round. *)
type inst = { pool : Scheduler.Pool.t; conc : Conc.instance; mutable seen : int }

let start ?stats ?observer pool =
  { pool; conc = Conc.start ~pool ?stats ?observer (Sudoku.Networks.fig2 ~pool ()); seen = 0 }

let new_outputs i =
  let all = Conc.finish i.conc in
  let fresh = List.filteri (fun k _ -> k >= i.seen) all in
  i.seen <- List.length all;
  fresh

(* Feed a batch, wait for quiescence; (outputs, round timing). *)
let run_round i recs =
  timed ~pool:i.pool (fun () ->
      List.iter (Conc.feed i.conc) recs;
      new_outputs i)

type counts = { mutable attempted : int; mutable failed : int }

(* Setup: build the net and start the engine until the first feed
   returns; the median of 50 is reported. *)
let setup pool st cnt =
  setup_median ~pool 50 (fun () ->
      let r = make_record st (List.nth (Lazy.force corpus) 1) in
      let i = start pool in
      Conc.feed i.conc r;
      fun () ->
        let outs = new_outputs i in
        cnt.attempted <- cnt.attempted + 1;
        cnt.failed <- cnt.failed + check st [ pid_of r ] outs)

(* One throughput round on [i]: every corpus puzzle, fed at once,
   until quiescence; (puzzles, timing). *)
let throughput_round i st cnt () =
  let recs = round_records st in
  let outs, r = run_round i recs in
  cnt.attempted <- cnt.attempted + List.length recs;
  cnt.failed <- cnt.failed + check st (List.map pid_of recs) outs;
  (List.length recs, r)

(* Nominal round times on the reference host, in seconds. *)
let round_s = 0.48
let group_s = 0.108

(* One group of latency samples after a host-speed probe: one puzzle
   into an idle, built instance until its last solution, ten times for
   each puzzle of the class in turn. Each puzzle's median is kept
   apart and the medians averaged, so the mix cannot move them. Returns
   the group's corrected and raw p50, and its corrected samples by
   puzzle. *)
let latency_group i st cnt () =
  let cls =
    List.filter
      (fun (e, _) -> e.Sudoku.Puzzles.difficulty = latency_class)
      (Lazy.force corpus)
  in
  let cls = Array.of_list cls in
  let k = Array.length cls in
  let speed = probe (Some i.pool) in
  let xs =
    List.init (10 * k) (fun n ->
        let r = make_record st cls.(n mod k) in
        let t0 = now () in
        Conc.feed i.conc r;
        let outs = new_outputs i in
        let dt = now () -. t0 in
        cnt.attempted <- cnt.attempted + 1;
        cnt.failed <- cnt.failed + check st [ pid_of r ] outs;
        dt)
  in
  let by = Array.init k (fun j -> List.filteri (fun n _ -> n mod k = j) xs) in
  let p50 f = mean (Array.to_list (Array.map (fun l -> median (List.map f l)) by)) in
  ( p50 (fun dt -> dt *. speed *. 1e3),
    p50 (fun dt -> dt *. 1e3),
    Array.map (List.map (fun dt -> dt *. speed *. 1e3)) by )

let run ~seed ~seconds =
  with_pool @@ fun pool ->
  let st = stream seed and cnt = { attempted = 0; failed = 0 } in
  let setup_raw, setup_s = setup pool st cnt in
  let i = start pool in
  (* Warm-up: one round, not timed. *)
  ignore (throughput_round i st cnt ());
  let rounds = phase ~seconds:(0.7 *. seconds) ~nominal:round_s (throughput_round i st cnt) in
  let groups = phase ~seconds:(0.3 *. seconds) ~nominal:group_s (latency_group i st cnt) in
  let rps, rps_raw = phase_rate rounds in
  (* The interquartile mean of the groups' medians, as for the rate. *)
  let p50 = iqm (List.map (fun (c, _, _) -> c) groups)
  and raw50 = iqm (List.map (fun (_, r, _) -> r) groups) in
  let p99 =
    let by = List.map (fun (_, _, b) -> b) groups in
    mean
      (List.init (Array.length (List.hd by)) (fun j ->
           quantile 0.99 (List.concat_map (fun b -> b.(j)) by)))
  in
  say "fig2-stream: %d throughput rounds of %d puzzles, %d latency groups"
    (List.length rounds) (List.length (Lazy.force corpus)) (List.length groups);
  say "  rps        %10.3f /s   (raw %.3f /s)" rps rps_raw;
  say "  latency    p50 %.3f ms  (raw %.3f)  p99 %.3f ms" p50 raw50 p99;
  say "  setup      %.4f s  (raw %.4f s)" setup_s setup_raw;
  {
    attempted = cnt.attempted;
    failed = cnt.failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "rps" "1/s" rps;
        m "latency_p50_ms" "ms" p50;
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ];
  }

(* {1 Sequential baseline}

   The same throughput rounds through Engine_seq on one thread, with
   no pool: the reference the concurrent engine is measured against.
   Not one of the benchmark's workloads. *)

let seq_baseline ~seed ~seconds =
  let st = stream seed and cnt = { attempted = 0; failed = 0 } in
  let net = Sudoku.Networks.fig2 () in
  let rounds =
    phase ~seconds ~nominal:round_s (fun () ->
        let recs = round_records st in
        let outs, r = timed (fun () -> Snet.Engine_seq.run net recs) in
        cnt.attempted <- cnt.attempted + List.length recs;
        cnt.failed <- cnt.failed + check st (List.map pid_of recs) outs;
        (List.length recs, r))
  in
  let rps, raw = phase_rate rounds in
  say "fig2-seq (baseline): %d rounds on Engine_seq, one thread" (List.length rounds);
  say "  rps        %10.3f /s   (raw %.3f /s)" rps raw;
  { attempted = cnt.attempted; failed = cnt.failed; metrics = [ m "rps" "1/s" rps ] }

(* {1 Traced run} *)

let traced ~seed ~seconds =
  with_pool @@ fun pool ->
  let st = stream seed and cnt = { attempted = 0; failed = 0 } in
  let plain = start pool in
  let stats = Snet.Stats.create () in
  let probed = start ~stats pool in
  ignore (throughput_round plain st cnt ());
  ignore (throughput_round probed st cnt ());
  (* Plain and probed rounds alternate, so both see the same drift. *)
  let plain_rates = ref [] and probed_rates = ref [] in
  let w0 = minor_words () and n0 = cnt.attempted in
  let t_end = now () +. (0.6 *. seconds) in
  (* Engine_conc records scheduler counters only in [run]; for a
     long-lived instance they come from the pool around its rounds. *)
  let sched = Array.make 4 0 in
  let pool_counts () =
    let p = Scheduler.Pool.stats pool in
    Scheduler.Pool.[| p.tasks; p.steals; p.parks; p.splits |]
  in
  while now () < t_end do
    Obsv.Metrics.disable ();
    plain_rates := throughput_round plain st cnt () :: !plain_rates;
    Obsv.Metrics.enable ();
    let p0 = pool_counts () in
    probed_rates := throughput_round probed st cnt () :: !probed_rates;
    Array.iteri (fun k v -> sched.(k) <- sched.(k) + v - p0.(k)) (pool_counts ())
  done;
  Obsv.Metrics.disable ();
  let words = minor_words () -. w0 and fed = cnt.attempted - n0 in
  let probed_n = List.length !probed_rates * List.length (Lazy.force corpus) in
  let s1 = Snet.Stats.snapshot stats in
  let per d = float_of_int d /. float_of_int (max 1 probed_n) in
  (* Counters over the probed instance's life, warm-up round included:
     star stages and split replicas unfold once, early. *)
  let sd f =
    float_of_int (f s1) /. float_of_int (probed_n + List.length (Lazy.force corpus))
  in
  (* Capture the records reaching each box during one round, then
     replay them through Box.execute on the same boxes. *)
  let captured = Hashtbl.create 2 and mu = Mutex.create () in
  let observer ~edge r =
    let suffix s = String.length edge >= String.length s
                   && String.sub edge (String.length edge - String.length s)
                        (String.length s) = s in
    List.iter
      (fun name ->
        if suffix ("/box:" ^ name) then begin
          Mutex.lock mu;
          Hashtbl.replace captured name
            (r :: Option.value ~default:[] (Hashtbl.find_opt captured name));
          Mutex.unlock mu
        end)
      [ "computeOpts"; "solveOneLevelK" ]
  in
  let cap = start ~observer pool in
  let recs = round_records st in
  let outs, _ = run_round cap recs in
  cnt.attempted <- cnt.attempted + List.length recs;
  cnt.failed <- cnt.failed + check st (List.map pid_of recs) outs;
  let replay_us name mk =
    let b = mk () in
    let rs = Option.value ~default:[] (Hashtbl.find_opt captured name) in
    let t0 = now () in
    List.iter (fun r -> ignore (Snet.Box.execute b r : Snet.Record.t list)) rs;
    (now () -. t0) *. 1e6 /. float_of_int (List.length recs)
  in
  let co_us = replay_us "computeOpts" (fun () -> Sudoku.Boxes.compute_opts ~pool ()) in
  let sk_us =
    replay_us "solveOneLevelK" (fun () -> Sudoku.Boxes.solve_one_level_k ~pool ())
  in
  let raw l = snd (phase_rate l) in
  let insitu_ms = 1e3 /. raw !plain_rates in
  let coord_ms = insitu_ms -. ((co_us +. sk_us) /. 1e3) in
  let overhead = ((raw !plain_rates /. raw !probed_rates) -. 1.) *. 100. in
  ledger ~title:"fig2-stream" ~unit:"ms" ~total:insitu_ms
    [
      ("sudoku.computeOpts (replayed)", co_us /. 1e3);
      ("sudoku.solveOneLevelK (replayed)", sk_us /. 1e3);
    ];
  say "  the residual is core.coord_ms_per_puzzle: boxes' actor hops, filter,\
       \ routing, star/split unfolding and scheduling";
  {
    attempted = cnt.attempted;
    failed = cnt.failed;
    metrics =
      [
        m "sudoku.computeOpts_us" "us" co_us;
        m "sudoku.solveOneLevelK_us" "us" sk_us;
        m "core.coord_ms_per_puzzle" "ms" coord_ms;
        m "core.box_calls" "count" (sd (fun s -> s.Snet.Stats.box_invocations));
        m "core.filter_calls" "count" (sd (fun s -> s.Snet.Stats.filter_invocations));
        m "core.star_stages" "count" (sd (fun s -> s.Snet.Stats.star_stages));
        m "core.split_replicas" "count" (sd (fun s -> s.Snet.Stats.split_replicas));
        m "streams.mailbox_stalls" "count"
          (sd (fun s -> s.Snet.Stats.backpressure_stalls));
        m "scheduler.tasks" "count" (per sched.(0));
        m "scheduler.steals" "count" (per sched.(1));
        m "scheduler.parks" "count" (per sched.(2));
        m "scheduler.splits" "count" (per sched.(3));
        m "gc.minor_mb_per_rec" "MB" (words *. 8. /. 1e6 /. float_of_int (max 1 fed));
        m "obsv.trace_overhead_pct" "%" overhead;
      ];
  }
