(* serve-journaled: an in-process journaled Serve.Server running the
   ping net, driven over real TCP on 127.0.0.1 through Serve.Client. *)

open Measure
module Server = Serve.Server
module Client = Serve.Client
module Tcp = Dist.Transport.Tcp

(* The submit window: large enough that the open-loop sender never
   waits for a credit (it caps its own backlog at half of it). *)
let window = 4096
let backlog_cap = window / 2

(* Closed loop: requests outstanding, and requests per round. *)
let outstanding = 64
let round_n = 4000

(* Open loop: the fixed offered rate, and requests per round. *)
let open_rate = 2000.
let open_n = 2000

(* Nominal round times on the reference host, in seconds. *)
let closed_s = 0.39
let open_s = 1.03

let cfg = { Server.default_config with credits = window; max_sessions = 4 }

type rig = {
  pool : Scheduler.Pool.t;
  srv : Server.t;
  dir : string;
  listener : Tcp.listener;
  acceptor : Thread.t;
  client : Client.t;
}

(* Server on a fresh journal directory, listener, one connected
   client session. *)
let start pool =
  let dir = fresh_dir "journal" in
  let durability =
    { Server.dir; fsync_every = 0; snapshot_every = 1000; spec = "ping" }
  in
  let srv = Server.create ~pool ~cfg ~durability (Sudoku.Networks.ping ()) in
  let listener = Tcp.listen () in
  let acceptor =
    Thread.create
      (fun () ->
        let c = Tcp.accept ~timeout_s:30. listener in
        Server.serve_conn srv (Dist.Transport.erase (module Tcp) c))
      ()
  in
  let conn =
    Dist.Transport.erase (module Tcp) (Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port listener))
  in
  match Client.connect ~credits:window conn with
  | Ok client -> { pool; srv; dir; listener; acceptor; client }
  | Error e -> failwith ("serve-journaled: connect: " ^ e)

(* Requests, responses and the journal's agreement with them. *)
type book = {
  offset : int;
  mutable seen : int array;  (** Responses per request index. *)
  mutable sent : int;
  mutable got : int;
  mutable stray : int;
  mutable submit_s : float;  (** Time inside Client.submit. *)
}

let book rng = { offset = Random.State.int rng Checks.stride; seen = Array.make 1024 0;
                 sent = 0; got = 0; stray = 0; submit_s = 0. }

(* Room in [seen] for [n] more requests. Only called while one thread
   drives the client: the open loop reserves before its sender starts. *)
let reserve b n =
  let need = b.sent + n in
  if need > Array.length b.seen then begin
    let a = Array.make (max need (2 * Array.length b.seen)) 0 in
    Array.blit b.seen 0 a 0 (Array.length b.seen);
    b.seen <- a
  end

let submit b c =
  let i = b.sent in
  if i >= Array.length b.seen then reserve b 1;
  let x = Checks.request_x ~offset:b.offset i in
  let t0 = now () in
  (match Client.submit c (Snet.Record.with_tag "x" x Snet.Record.empty) with
  | `Ok -> ()
  | _ -> failwith "serve-journaled: submit refused");
  b.submit_s <- b.submit_s +. (now () -. t0);
  b.sent <- i + 1;
  i

(* The next response; returns its request index (or -1 if it matches
   none). *)
let recv b c =
  match Client.recv c with
  | `Record r ->
      b.got <- b.got + 1;
      let before = b.stray in
      b.stray <- b.stray + Checks.tally_response ~offset:b.offset b.seen r;
      if b.stray > before then -1
      else (Snet.Record.tag_exn "y" r - 1 - b.offset) / Checks.stride
  | `Done | `Crashed _ -> failwith "serve-journaled: session ended early"

(* Close the session, stop everything, check the responses and the
   journal; returns the number of failed requests. *)
let stop rig b =
  let rest = Client.drain_remaining rig.client in
  List.iter (fun r -> b.stray <- b.stray + Checks.tally_response ~offset:b.offset b.seen r) rest;
  b.got <- b.got + List.length rest;
  Thread.join rig.acceptor;
  Tcp.close_listener rig.listener;
  Server.drain rig.srv;
  List.iter Durable.Journal.close (Durable.Journal.live_writers ());
  let bad = Checks.not_once b.seen b.sent + b.stray in
  let bad =
    match Checks.journal_ok ~dir:rig.dir ~requests:b.sent ~responses:b.got with
    | Ok () -> bad
    | Error e ->
        say "serve-journaled: %s" e;
        max bad 1
  in
  rm_rf rig.dir;
  bad

(* One closed-loop round: [outstanding] requests in flight, [round_n]
   in all. *)
let closed_round rig b =
  let c = rig.client in
  timed ~pool:rig.pool (fun () ->
      let first = b.sent in
      for _ = 1 to outstanding do
        ignore (submit b c : int)
      done;
      while b.got < first + round_n do
        ignore (recv b c : int);
        if b.sent < first + round_n then ignore (submit b c : int)
      done)

let closed_loop rig b ~seconds =
  phase ~seconds ~nominal:closed_s (fun () -> (round_n, snd (closed_round rig b)))

(* One open-loop round: a sender thread submits request k at
   [t0 + k / open_rate] whatever the server does (it only waits when
   [backlog_cap] requests are outstanding); this thread receives.
   Latency runs from the send, so that the generator's own wake-up
   slack is not counted against the server; how late the sends ran
   after their due times is reported beside it. *)
type open_round = { lat : float list; late : float list; backlog_max : int }

let open_round b c =
  reserve b open_n;
  let first = b.sent in
  let t0 = now () +. 0.001 in
  let due i = t0 +. (float_of_int (i - first) /. open_rate) in
  let late = ref [] and backlog_max = ref 0 and sent_at = Array.make open_n 0. in
  let sender =
    Thread.create
      (fun () ->
        for k = 0 to open_n - 1 do
          let d = due (first + k) -. now () in
          if d > 0. then Unix.sleepf d;
          while b.sent - b.got >= backlog_cap do
            Thread.yield ()
          done;
          let t = now () in
          late := (t -. due (first + k)) :: !late;
          sent_at.(k) <- t;
          backlog_max := max !backlog_max (b.sent - b.got);
          ignore (submit b c : int)
        done)
      ()
  in
  let lat = ref [] in
  while b.got < first + open_n do
    let i = recv b c in
    if i >= first && i < first + open_n then lat := (now () -. sent_at.(i - first)) :: !lat
  done;
  Thread.join sender;
  { lat = !lat; late = !late; backlog_max = !backlog_max }

(* Open-loop rounds filling [seconds]: each round's p50 and p99
   latency corrected by its host speed, in ms, and the rounds. *)
let open_loop rig b ~seconds =
  let rounds =
    phase ~seconds ~nominal:open_s (fun () ->
        timed ~pool:rig.pool (fun () -> open_round b rig.client))
  in
  let q p = List.map (fun (o, r) -> quantile p o.lat *. r.speed *. 1e3) rounds in
  ((q 0.5, q 0.99), List.map fst rounds)

let setup pool rng =
  let bad = ref 0 in
  let t =
    setup_median ~pool 30 (fun () ->
        let rig = start pool in
        fun () -> bad := !bad + stop rig (book rng))
  in
  (t, !bad)

let run ~seed ~seconds =
  with_pool @@ fun pool ->
  let rng = Random.State.make [| seed; 4 |] in
  let (setup_raw, setup_s), setup_bad = setup pool rng in
  let rig = start pool in
  let b = book rng in
  (* The open loop runs first: its request count is fixed by the
     schedule, so what it meets does not depend on how far the closed
     loop got. *)
  ignore (closed_round rig b);
  let (p50s, p99s), opens = open_loop rig b ~seconds:(0.6 *. seconds) in
  let rates = closed_loop rig b ~seconds:(0.4 *. seconds) in
  let bad = stop rig b in
  let rps, rps_raw = phase_rate rates in
  (* The interquartile mean of the rounds' medians, as for the rate. *)
  let p50 = iqm p50s in
  let raw q = iqm (List.map (fun o -> quantile q o.lat *. 1e3) opens) in
  say "serve-journaled: %d closed rounds of %d (%d outstanding), %d open-loop \
       rounds of %d at %.0f/s" (List.length rates) round_n outstanding (List.length opens)
    open_n open_rate;
  say "  rps        %10.1f /s   (raw %.1f /s)" rps rps_raw;
  say "  latency    p50 %.3f ms  (raw %.3f)  p99 %.3f ms  (rounds' mean p50, median p99)"
    p50 (raw 0.5) (median p99s);
  say "  generator  late p99 %.3f ms, backlog max %d"
    (quantile 0.99 (List.concat_map (fun o -> o.late) opens) *. 1e3)
    (List.fold_left (fun a o -> max a o.backlog_max) 0 opens);
  say "  setup      %.4f s  (raw %.4f s)" setup_s setup_raw;
  {
    attempted = b.sent + 30;
    failed = bad + setup_bad;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "rps" "1/s" rps;
        m "latency_p50_ms" "ms" p50;
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ];
  }

(* {1 Traced run} *)

(* Round trip of [frame] through a TCP echo on 127.0.0.1. *)
let tcp_rtt frame n =
  let l = Tcp.listen () in
  let echo =
    Thread.create
      (fun () ->
        let c = Tcp.accept ~timeout_s:30. l in
        let rec loop () =
          match Tcp.recv c with
          | `Msg m ->
              Tcp.send c m;
              loop ()
          | `Closed -> Tcp.close c
        in
        loop ())
      ()
  in
  let c = Tcp.connect ~host:"127.0.0.1" ~port:(Tcp.port l) in
  let rtt = per_call n (fun () -> Tcp.send c frame; ignore (Tcp.recv c)) in
  Tcp.close c;
  Thread.join echo;
  Tcp.close_listener l;
  rtt

let traced ~seed ~seconds =
  with_pool @@ fun pool ->
  let rng = Random.State.make [| seed; 4 |] in
  let rig = start pool in
  let b = book rng in
  ignore (closed_round rig b);
  let opens = snd (open_loop rig b ~seconds:(0.3 *. seconds)) in
  (* Plain and probed closed-loop rounds alternate. *)
  let plain = ref [] and probed = ref [] and probed_n = ref 0 and submit_s = ref 0. in
  let j0 = Obsv.Journal_stats.snapshot () and n0 = b.sent and w0 = minor_words () in
  let t_end = now () +. (0.5 *. seconds) in
  while now () < t_end do
    plain := (round_n, snd (closed_round rig b)) :: !plain;
    Obsv.Metrics.enable ();
    let s0 = b.submit_s in
    probed := (round_n, snd (closed_round rig b)) :: !probed;
    submit_s := !submit_s +. (b.submit_s -. s0);
    Obsv.Metrics.disable ();
    probed_n := !probed_n + round_n
  done;
  let j1 = Obsv.Journal_stats.snapshot () and reqs = b.sent - n0 in
  let words = minor_words () -. w0 in
  let bad = stop rig b in
  let per_req f = float_of_int (f j1 - f j0) /. float_of_int reqs in
  (* Layer rows, replayed on request-sized records. *)
  let req =
    Snet.Record.with_tag Server.session_tag 0
      (Snet.Record.with_tag "x" (Checks.request_x ~offset:b.offset 7) Snet.Record.empty)
  in
  let resp = Snet.Record.with_tag "y" 1 (Snet.Record.without_tag "x" req) in
  let ctx = Dist.Wire.ctx () in
  let frame r = Dist.Proto.encode ~ctx (Dist.Proto.Data r) in
  let rtt = tcp_rtt (frame req) 5000 in
  let codec =
    per_call 20000 (fun () ->
        List.iter
          (fun r ->
            ignore (Dist.Proto.decode ~ctx (frame r));
            ignore (Dist.Wire.render ~ctx r : string))
          [ req; resp ])
  in
  let jdir = fresh_dir "append" in
  let w = Durable.Journal.open_writer ~fsync_every:0 jdir in
  let payloads = [| Dist.Wire.render req; Dist.Wire.render resp |] in
  let k = ref 0 in
  let append =
    per_call 20000 (fun () ->
        incr k;
        ignore
          (Durable.Journal.append w ~kind:Durable.Journal.Input ~edge:"serve:s0.in"
             payloads.(!k land 1)
            : int))
  in
  Durable.Journal.close w;
  rm_rf jdir;
  let appends = per_req (fun s -> s.Obsv.Journal_stats.appends) in
  let raw_lat = List.concat_map (fun o -> o.lat) opens in
  let p50_us = median raw_lat *. 1e6 in
  let rows =
    [
      ("serve.tcp_rtt", rtt *. 1e6);
      (Printf.sprintf "durable.append x%.2f" appends, appends *. append *. 1e6);
      ("wire+proto codec (req, resp)", codec *. 1e6);
    ]
  in
  ledger ~title:"serve-journaled open-loop p50 latency" ~unit:"us" ~total:p50_us rows;
  say "  the residual is serve.residual_us_per_req: the server's reader and \
       writer threads, the engine's actor hops and thread wake-ups";
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  let raw l = snd (phase_rate l) in
  {
    attempted = b.sent;
    failed = bad;
    metrics =
      [
        m "serve.submit_us" "us" (!submit_s /. float_of_int (max 1 !probed_n) *. 1e6);
        m "serve.tcp_rtt_us" "us" (rtt *. 1e6);
        m "serve.residual_us_per_req" "us" (p50_us -. explained);
        m "durable.append_us" "us" (append *. 1e6);
        m "durable.appends_per_req" "count" appends;
        m "durable.bytes_per_req" "B" (per_req (fun s -> s.Obsv.Journal_stats.append_bytes));
        m "durable.fsyncs_per_req" "count" (per_req (fun s -> s.Obsv.Journal_stats.fsyncs));
        m "durable.snapshots_per_kreq" "count"
          (1000. *. per_req (fun s -> s.Obsv.Journal_stats.snapshots));
        m "serve.gen_late_ms_p99" "ms"
          (quantile 0.99 (List.concat_map (fun o -> o.late) opens) *. 1e3);
        m "serve.backlog_max" "count"
          (float_of_int (List.fold_left (fun a o -> max a o.backlog_max) 0 opens));
        m "gc.minor_mb_per_rec" "MB" (words *. 8. /. 1e6 /. float_of_int (max 1 reqs));
        m "obsv.trace_overhead_pct" "%" (((raw !plain /. raw !probed) -. 1.) *. 100.);
      ];
  }
