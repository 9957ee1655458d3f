(* The repository's benchmark: one workload per invocation, prints
   human-readable lines and, last, one JSON result line.

     perfbench --workload fig2-stream --seed 1 --seconds 20 --trace 0

   [--trace 0] reports the end-to-end metrics; [--trace 1] is the
   separate traced run that reports the per-layer metrics and prints
   each workload's cost ledger. *)

let workloads =
  [
    ("fig2-stream", (W_fig2.run, W_fig2.traced));
    ("shard-dist", (W_shard.run, W_shard.traced));
    ("serve-journaled", (W_serve.run, W_serve.traced));
  ]

(* Every per-layer metric, reported by every workload: a layer a
   workload does not exercise reads 0 there. *)
let per_layer =
  [
    ("sudoku.computeOpts_us", "us");
    ("sudoku.solveOneLevelK_us", "us");
    ("core.coord_ms_per_puzzle", "ms");
    ("core.box_calls", "count");
    ("core.filter_calls", "count");
    ("core.star_stages", "count");
    ("core.split_replicas", "count");
    ("streams.mailbox_stalls", "count");
    ("scheduler.tasks", "count");
    ("scheduler.steals", "count");
    ("scheduler.parks", "count");
    ("scheduler.splits", "count");
    ("dist.frame_bytes_per_rec", "B");
    ("dist.encode_ns_per_rec", "ns");
    ("dist.decode_ns_per_rec", "ns");
    ("dist.batch_p50", "count");
    ("dist.envelope_ns_per_rec", "ns");
    ("dist.transport_us_per_envelope", "us");
    ("dist.credit_stalls_per_krec", "count");
    ("dist.residual_us_per_rec", "us");
    ("serve.submit_us", "us");
    ("serve.tcp_rtt_us", "us");
    ("serve.residual_us_per_req", "us");
    ("durable.append_us", "us");
    ("durable.appends_per_req", "count");
    ("durable.bytes_per_req", "B");
    ("durable.fsyncs_per_req", "count");
    ("durable.snapshots_per_kreq", "count");
    ("serve.gen_late_ms_p99", "ms");
    ("serve.backlog_max", "count");
    ("gc.minor_mb_per_rec", "MB");
    ("obsv.trace_overhead_pct", "%");
  ]

let fill_layers (r : Measure.result) =
  let has n = List.exists (fun (m : Measure.metric) -> m.name = n) r.metrics in
  List.iter
    (fun (m : Measure.metric) ->
      if not (List.mem_assoc m.name per_layer) then
        failwith ("per-layer metric not declared: " ^ m.name))
    r.metrics;
  {
    r with
    metrics =
      List.map
        (fun (n, u) ->
          if has n then List.find (fun (m : Measure.metric) -> m.name = n) r.metrics
          else Measure.m n u 0.)
        per_layer;
  }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: "
        ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (* [fig2-seq] is the single-threaded Engine_seq reference for
     fig2-stream, not a workload of the benchmark. *)
  let modes = ("fig2-seq", (W_fig2.seq_baseline, W_fig2.seq_baseline)) :: workloads in
  match List.assoc_opt !workload modes with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some (run, traced) ->
      if !seconds <= 0. then (prerr_endline "perfbench: --seconds must be > 0"; exit 2);
      let result =
        Fun.protect ~finally:Measure.cleanup (fun () ->
            if !trace = 0 || !workload = "fig2-seq" then run ~seed:!seed ~seconds:!seconds
            else fill_layers (traced ~seed:!seed ~seconds:!seconds))
      in
      print_endline (Measure.json_of_result result)
