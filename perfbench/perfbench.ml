(* Command line: run one workload and print its metrics.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--nproc N] [--quick] [--out DIR]

   The last line of standard output is the JSON result; the lines before
   it are the run's sizing facts. *)

open Harness

let workloads =
  [
    ("asof_audit", W_asof_audit.run);
    ("oltp_asof_mix", W_oltp_asof_mix.run);
    ("restart_catchup", W_restart_catchup.run);
    ("whatif_undo", W_whatif_undo.run);
  ]

(* ---- end-to-end metrics (untraced runs) ---- *)

(* Host times are at the reference machine speed (see
   [Harness.at_reference_speed] and [Harness.setup_median]). *)
let end_to_end r =
  let n = float_of_int (Samples.count r.op_ms) in
  let op_ms, loop_ms = at_reference_speed r in
  [
    { name = "setup_s"; unit_ = "s"; value = Samples.quantile r.setups 0.5 };
    { name = "op_ms_p50"; unit_ = "ms"; value = Samples.quantile op_ms 0.5 };
    { name = "op_ms_p90"; unit_ = "ms"; value = Samples.quantile op_ms 0.9 };
    { name = "op_ms_p99"; unit_ = "ms"; value = Samples.quantile op_ms 0.99 };
    { name = "op_sim_ms_mean"; unit_ = "ms"; value = Samples.mean r.op_sim_ms };
    { name = "ops_per_s"; unit_ = "1/s"; value = ratio n (loop_ms /. 1e3) };
    { name = "ops_per_sim_s"; unit_ = "1/s"; value = ratio n (r.loop_sim_us /. 1e6) };
    { name = "peak_heap_mb"; unit_ = "MB"; value = peak_heap_mb () };
  ]

(* ---- per-layer metrics (traced runs) ---- *)

(* Denominators: "per op" divides the counter deltas of the traced
   headline ops alone ([r.op_acc]) by their number; "per query" and "per
   txn" divide the deltas of the whole traced units ([r.acc]) by the
   traced as-of queries and commits; ratios are taken over the whole
   traced units. *)
let per_layer r =
  let a = r.acc and o = r.op_acc in
  let p c = float_of_int (probe a c) and po c = float_of_int (probe o c) in
  let module P = Probes in
  let ops = float_of_int r.traced_ops in
  let queries = float_of_int (Samples.count (layer_samples r "asof.queries")) in
  let txns = p P.commits in
  let med name = Samples.quantile (layer_samples r name) 0.5 in
  let mean name = Samples.mean (layer_samples r name) in
  let l = a.log_io in
  let m name unit_ value = { name; unit_; value } in
  let open Io_stats in
  [
    m "wal.block_hit_ratio" "ratio" (ratio_i l.log_block_hits (l.log_block_hits + l.log_block_misses));
    m "wal.record_hit_ratio" "ratio"
      (ratio_i l.log_record_hits (l.log_record_hits + l.log_record_misses));
    m "wal.segments_loaded_per_query" "count" (ratio (p P.log_segments_loaded) queries);
    m "wal.read_bytes_per_query" "B"
      (ratio (float_of_int (l.random_read_bytes + l.seq_read_bytes)) queries);
    m "wal.device_sim_ms_per_op" "ms" (ratio (part_us r "log_device") ops /. 1e3);
    m "wal.append_bytes_per_txn" "B" (ratio (p P.log_append_bytes) txns);
    m "wal.flush_batches_per_txn" "count" (ratio (float_of_int l.log_flush_batches) txns);
    m "txn.commits_per_flush" "count" (ratio_i l.log_commits_coalesced l.log_flush_batches);
    m "txn.commit_sim_us_p50" "us" (commit_p50_us a);
    m "buffer.hit_ratio" "ratio" (ratio (p P.fetch_hits) (p P.fetch_hits +. p P.fetch_misses));
    m "buffer.evictions_per_op" "count" (ratio (po P.evictions) ops);
    m "buffer.writebacks_per_op" "count" (ratio (po P.writebacks) ops);
    m "storage.data_device_sim_ms_per_op" "ms" (ratio (part_us r "data_device") ops /. 1e3);
    m "storage.data_reads_per_op" "count" (ratio (float_of_int o.data_io.random_reads) ops);
    m "storage.side_file_bytes_per_query" "B" (mean "storage.side_file_bytes_per_query");
    m "core.snapshot.create_ms" "ms" (med "core.snapshot.create_ms");
    m "core.snapshot.create_sim_ms" "ms" (med "core.snapshot.create_sim_ms");
    m "core.snapshot.pages_materialized_per_query" "count"
      (ratio (p P.snapshot_pages_materialized) queries);
    m "core.snapshot.side_hits_per_query" "count" (ratio (p P.snapshot_side_hits) queries);
    m "core.snapshot.in_flight_undo_ops" "count" (mean "core.snapshot.in_flight_undo_ops");
    m "core.undo.rewinds_per_query" "count" (ratio (p P.page_rewinds) queries);
    m "core.undo.ops_undone_per_query" "count" (ratio (p P.ops_undone) queries);
    m "core.undo.log_reads_per_rewind" "count" (ratio a.chain_sum (p P.page_rewinds));
    m "core.undo.rewind_us_per_page" "us" (med "core.undo.rewind_us_per_page");
    m "core.prepared_cache.hit_ratio" "ratio"
      (ratio_i (a.pc_hits + a.pc_delta) (a.pc_hits + a.pc_delta + a.pc_misses));
    m "core.prepared_cache.delta_hit_share" "ratio" (ratio_i a.pc_delta (a.pc_hits + a.pc_delta));
    m "access.query_ms" "ms" (med "access.query_ms");
    m "sql.parse_us" "us" (med "sql.parse_us");
    m "core.pool.tasks_per_op" "count" (ratio (po P.pool_tasks) ops);
    m "core.pool.wakes_per_op" "count" (ratio (po P.pool_wakes) ops);
    m "whatif.graph_build_ms" "ms" (med "whatif.graph_build_ms");
    m "whatif.preview_ms" "ms" (med "whatif.preview_ms");
    m "whatif.closure_size" "count" (mean "whatif.closure_size");
    m "whatif.pages_rewound" "count" (ratio (po P.whatif_pages_rewound) ops);
    m "whatif.ops_replayed" "count" (ratio (po P.whatif_ops_replayed) ops);
    m "whatif.conflicts" "count" (ratio (po P.whatif_conflicts) ops);
    m "session.reader_busy_share" "ratio" (mean "session.reader_busy_share");
    m "session.reader_query_ms_p50" "ms" (med "session.reader_query_ms");
    m "session.tpmc_sim" "1/min" (mean "session.tpmc_sim");
    m "runtime.minor_words_per_op" "words" (ratio o.minor_words ops);
    m "runtime.major_collections_per_kop" "count"
      (ratio (float_of_int o.major_collections) ops *. 1000.0);
    m "sim.op_us_per_op" "us" (ratio r.op_sim_us ops);
    m "sim.side_file_us_per_op" "us" (ratio (part_us r "side_file") ops);
    m "sim.access_cpu_us_per_op" "us" (ratio (part_us r "access_cpu") ops);
    m "sim.unattributed_us_per_op" "us" (ratio (part_us r "unattributed") ops);
    m "sim.unattributed_max_share" "ratio" r.worst_unattributed;
    m "trace.overhead_pct" "%"
      ((ratio (Samples.quantile r.traced_cost 0.5) (Samples.quantile r.untraced_cost 0.5) -. 1.0)
      *. 100.0);
    m "trace.dropped_events" "count" (float_of_int !Sim_spans.dropped);
    m "host.calib_kernel_ms" "ms" (Samples.quantile r.calib 0.5);
    m "host.op_ms_p50_unscaled" "ms" (Samples.quantile r.op_ms 0.5);
  ]

(* restart_catchup's own layers.  The workload is not listed in
   BENCHMARK.json (see README.md), so these are reported on it alone. *)
let restart_layer r =
  let cycles = float_of_int (Samples.count (layer_samples r "restart.cycles")) in
  let p c = float_of_int (probe r.acc c) in
  let module P = Probes in
  let med name = Samples.quantile (layer_samples r name) 0.5 in
  let mean name = Samples.mean (layer_samples r name) in
  let sum name = Samples.sum (layer_samples r name) in
  let m name unit_ value = { name; unit_; value } in
  [
    m "recovery.open_ms" "ms" (med "recovery.open_ms");
    m "recovery.analysis_sim_ms" "ms"
      (ratio (Sim_spans.total_us "recovery.analysis")
         (float_of_int (Sim_spans.count "recovery.analysis"))
      /. 1e3);
    m "recovery.backlog_pages" "count" (mean "recovery.backlog_pages");
    m "recovery.pages_on_demand" "count" (ratio (p P.recovery_pages_on_demand) cycles);
    m "recovery.redone_ops" "count" (mean "recovery.redone_ops");
    m "recovery.drain_ms" "ms" (med "recovery.drain_ms");
    m "recovery.full_recovery_sim_ms" "ms" (med "recovery.full_recovery_sim_ms");
    m "repl.ship_ms" "ms" (med "repl.ship_ms");
    m "repl.apply_sim_ms" "ms" (med "repl.apply_sim_ms");
    m "repl.channel_sim_ms" "ms" (med "repl.channel_sim_ms");
    m "repl.bytes_shipped_per_cycle" "B" (ratio (p P.repl_bytes_shipped) cycles);
    m "repl.lag_segments_max" "count" (Samples.max (layer_samples r "repl.lag_segments"));
    m "repl.catchup_mb_per_s" "MB/s"
      (ratio (sum "repl.shipped_bytes" /. 1e6) (sum "repl.ship_ms" /. 1e3));
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--nproc N] [--quick] \
     [--out DIR] [--corrupt-oracle]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let nproc = ref 0 and quick = ref false and out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--corrupt-oracle" :: rest -> corrupt_oracle := true; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument: " ^ a); usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let run_workload =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let workers0 = Rw_pool.Domain_pool.spawned_workers () in
  let r = new_run ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~quick:!quick in
  if r.traced then Sim_spans.start ();
  run_workload r;
  let workers1 = Rw_pool.Domain_pool.spawned_workers () in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" !workload !seed !seconds !trace;
  Printf.printf "nproc %d, Domain.recommended_domain_count %d, pool workers at start %d, at end %d\n"
    !nproc (Domain.recommended_domain_count ()) workers0 workers1;
  print_string (Buffer.contents r.facts);
  Printf.printf "measured ops %d, attempted %d, failed %d\n" (Samples.count r.op_ms) r.attempted
    r.failed;
  Printf.printf
    "calibration kernel %.4f ms median over %d runs (reference %.2f ms); op_ms_p50 as measured \
     %.4f ms\n"
    (Samples.quantile r.calib 0.5) (Samples.count r.calib) calib_ref_ms
    (Samples.quantile r.op_ms 0.5);
  let metrics =
    if not r.traced then end_to_end r
    else if !workload = "restart_catchup" then per_layer r @ restart_layer r
    else per_layer r
  in
  if r.traced && !out <> "" then begin
    write_file (Filename.concat !out (!workload ^ ".host_spans.json")) (Spans.to_chrome_json ());
    write_file (Filename.concat !out (!workload ^ ".sim_trace.json")) (Sim_spans.to_chrome_json ())
  end;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = r.failed = 0 && workers0 = 0 && finite in
  print_endline
    (result_line ~correct ~attempted:(max r.attempted 1) ~failed:r.failed metrics)
