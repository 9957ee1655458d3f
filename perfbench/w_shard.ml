(* shard-dist: the tag-only sharded pipeline on Engine_dist with two
   in-process loopback workers. Every record crosses both cut edges,
   so the wire, protocol, transport, pumps and credits do nearly all
   the work. *)

open Measure
module Dist_engine = Dist.Engine_dist

let net () = Sudoku.Networks.shard ()

(* Distinct seeded inputs: the index in the high bits keeps them
   distinct, the low bits vary [x mod 8] and so the shard. *)
let inputs rng n = Array.init n (fun i -> (i lsl 10) lor (Random.State.bits rng land 1023))
let record x = Snet.Record.with_tag "x" x Snet.Record.empty
let x_of_z z = ((z / 10) - 1) / 3

(* Records per throughput round. *)
let round_n = 6000

type counts = { mutable attempted : int; mutable failed : int }

let run_checked ?stats ?tap pool cnt xs =
  let outs =
    Dist_engine.run ~pool ~workers:2 ?stats ?tap (net ()) (Array.to_list (Array.map record xs))
  in
  cnt.attempted <- cnt.attempted + Array.length xs;
  cnt.failed <- cnt.failed + Checks.shard_mismatches ~inputs:xs outs

(* A tap timing each record from the coordinator putting it on the
   first cut edge to its arrival at the global output. *)
let latency_tap () =
  let mu = Mutex.create () and t_in = Hashtbl.create 8192 and lat = ref [] in
  let tap ~edge r =
    let t = now () in
    Mutex.lock mu;
    (match edge with
    | "dist:w0.in" -> Hashtbl.replace t_in (Snet.Record.tag_exn "x" r) t
    | "dist:out" -> (
        match Snet.Record.tag "z" r with
        | Some z -> (
            match Hashtbl.find_opt t_in (x_of_z z) with
            | Some t0 -> lat := (t -. t0) :: !lat
            | None -> ())
        | None -> ())
    | _ -> ());
    Mutex.unlock mu
  in
  (tap, fun () -> !lat)

let setup pool rng cnt =
  setup_median ~pool 30 (fun () ->
      let xs = inputs rng 1 in
      run_checked pool cnt xs;
      ignore)

(* One throughput round: its timing, and its p50 and p99 record
   latency corrected by the round's host speed, in ms. *)
type round_stats = { round : round; p50 : float; p99 : float }

(* Nominal round time on the reference host, in seconds. *)
let round_s = 0.32

let one_round ?stats ?(tapped = true) pool rng cnt () =
  let xs = inputs rng round_n in
  let tap, got = latency_tap () in
  let tap = if tapped then Some tap else None in
  let (), r = timed ~pool (fun () -> run_checked ?stats ?tap pool cnt xs) in
  let lat = got () in
  let ms q = quantile q lat *. r.speed *. 1e3 in
  { round = r; p50 = ms 0.5; p99 = ms 0.99 }

let rate_of rs = phase_rate (List.map (fun r -> (round_n, r.round)) rs)

let run ~seed ~seconds =
  with_pool @@ fun pool ->
  let rng = Random.State.make [| seed; 3 |] and cnt = { attempted = 0; failed = 0 } in
  let setup_raw, setup_s = setup pool rng cnt in
  ignore (one_round pool rng cnt ());
  let rs = phase ~seconds ~nominal:round_s (one_round pool rng cnt) in
  let rps, rps_raw = rate_of rs in
  (* The interquartile mean of the rounds' medians, as for the rate. *)
  let p50 = iqm (List.map (fun r -> r.p50) rs)
  and p99 = median (List.map (fun r -> r.p99) rs) in
  say "shard-dist: %d rounds of %d records on 2 loopback workers" (List.length rs) round_n;
  say "  rps        %10.1f /s   (raw %.1f /s)" rps rps_raw;
  say "  latency    p50 %.3f ms  p99 %.3f ms  (first cut edge to output; rounds' mean p50, median p99)"
    p50 p99;
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

(* {1 Traced run} *)

let boxes net =
  let bs = ref [] in
  Snet.Net.iter_components (function Snet.Net.Box b -> bs := b :: !bs | _ -> ()) net;
  fun name -> List.find (fun b -> Snet.Box.name b = name) !bs

let traced ~seed ~seconds =
  with_pool @@ fun pool ->
  let rng = Random.State.make [| seed; 3 |] and cnt = { attempted = 0; failed = 0 } in
  let stats = Snet.Stats.create () in
  ignore (one_round pool rng cnt ());
  (* Plain and probed rounds alternate, so both see the same drift. *)
  let plain = ref [] and probed = ref [] in
  let w0 = minor_words () and n0 = cnt.attempted in
  let probed_n = ref 0 in
  let t_end = now () +. (0.6 *. seconds) in
  while now () < t_end do
    plain := one_round ~tapped:false pool rng cnt () :: !plain;
    Obsv.Metrics.enable ();
    probed := one_round ~tapped:false ~stats pool rng cnt () :: !probed;
    Obsv.Metrics.disable ();
    probed_n := !probed_n + round_n
  done;
  let words = minor_words () -. w0 and fed = cnt.attempted - n0 in
  let edge =
    List.assoc_opt "dist:w0.in" (Obsv.Metrics.snapshot ()).Obsv.Metrics.edges
  in
  let batch = match edge with Some e -> max 1 e.Obsv.Metrics.batch_p50 | None -> 1 in
  (* Capture the records crossing the cut edges of one run. *)
  let mu = Mutex.create () and cut = ref [] in
  let tap ~edge r =
    if edge <> "dist:out" then begin
      Mutex.lock mu;
      cut := r :: !cut;
      Mutex.unlock mu
    end
  in
  run_checked ~tap pool cnt (inputs rng 2000);
  let cut = Array.of_list !cut in
  let ctx = Dist.Wire.ctx () in
  let frames = Array.map (Dist.Wire.render ~ctx) cut in
  let reps = 20 in
  let k = ref 0 in
  let next () =
    let i = !k mod Array.length cut in
    incr k;
    i
  in
  let n = reps * Array.length cut in
  let enc = per_call n (fun () -> ignore (Dist.Wire.render ~ctx cut.(next ()) : string)) in
  let dec = per_call n (fun () -> ignore (Dist.Wire.read ~ctx frames.(next ()))) in
  let bytes =
    float_of_int (Array.fold_left (fun a f -> a + String.length f) 0 frames)
    /. float_of_int (Array.length frames)
  in
  let env_recs = List.init batch (fun _ -> cut.(next ())) in
  let env = Dist.Proto.encode ~ctx (Dist.Proto.Data_batch env_recs) in
  let env_s =
    per_call 2000 (fun () ->
        ignore (Dist.Proto.encode ~ctx (Dist.Proto.Data_batch env_recs) : string);
        ignore (Dist.Proto.decode ~ctx env))
  in
  let a, b = Dist.Transport.loopback_pair () in
  let hop =
    per_call 20000 (fun () ->
        Dist.Transport.send a env;
        ignore (Dist.Transport.recv b))
  in
  Dist.Transport.close a;
  (* The boxes' own time, replayed on the captured first-edge inputs. *)
  let box = boxes (net ()) in
  let firsts = Array.to_list cut |> List.filter (fun r -> Snet.Record.has_tag "x" r) in
  let chain r =
    List.concat_map (Snet.Box.execute (box "merge"))
      (List.concat_map (Snet.Box.execute (box "work")) (Snet.Box.execute (box "route") r))
  in
  let box_s =
    per_call 20 (fun () -> List.iter (fun r -> ignore (chain r : Snet.Record.t list)) firsts)
    /. float_of_int (List.length firsts)
  in
  let raw l = snd (rate_of l) in
  let total_us = 1e6 /. raw !plain in
  (* Each input crosses two cut edges, to and from a worker: four
     frames encoded and decoded, four envelope shares, four hops. *)
  let rows =
    [
      ("dist.encode x4", 4. *. enc *. 1e6);
      ("dist.decode x4", 4. *. dec *. 1e6);
      ("dist.envelope x4", 4. *. env_s /. float_of_int batch *. 1e6);
      ("dist.transport x4", 4. *. hop /. float_of_int batch *. 1e6);
      ("route/work/merge boxes (replayed)", box_s *. 1e6);
    ]
  in
  ledger ~title:"shard-dist" ~unit:"us" ~total:total_us rows;
  say "  the residual is dist.residual_us_per_rec: pumps, credit waits, locks, \
       thread hand-offs and the workers' engines";
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  let s = Snet.Stats.snapshot stats in
  {
    attempted = cnt.attempted;
    failed = cnt.failed;
    metrics =
      [
        m "dist.frame_bytes_per_rec" "B" bytes;
        m "dist.encode_ns_per_rec" "ns" (enc *. 1e9);
        m "dist.decode_ns_per_rec" "ns" (dec *. 1e9);
        m "dist.batch_p50" "count" (float_of_int batch);
        m "dist.envelope_ns_per_rec" "ns" (env_s /. float_of_int batch *. 1e9);
        m "dist.transport_us_per_envelope" "us" (hop *. 1e6);
        m "dist.credit_stalls_per_krec" "count"
          (float_of_int s.Snet.Stats.backpressure_stalls *. 1000.
          /. float_of_int (max 1 !probed_n));
        m "dist.residual_us_per_rec" "us" (total_us -. explained);
        m "gc.minor_mb_per_rec" "MB" (words *. 8. /. 1e6 /. float_of_int (max 1 fed));
        m "obsv.trace_overhead_pct" "%" (((raw !plain /. raw !probed) -. 1.) *. 100.);
      ];
  }
