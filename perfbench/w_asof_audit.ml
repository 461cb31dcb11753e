(* Workload asof_audit: the paper's headline operation on a quiescent
   TPC-C database with a long committed history.  One client loops
   create-snapshot → stock-level → drop at time-backs drawn from the seed
   across the whole history; the log history is several times the log
   block cache, so the read path pays cold log reads. *)

open Harness
module Q = Asof_query
module Tpcc = Q.Tpcc
module Prng = Rw_storage.Prng

(* Sizing.  64 KiB log blocks; 12 of them cache 768 KiB against a
   history of about 3.6 MB. *)
let log_cache_blocks = 12
let history_txns = 2000
let points = 200
let ops_per_second = 85.0
let warmup = 100

let run r =
  let cfg = { Tpcc.default_config with Tpcc.seed = r.seed } in
  let history_txns, points, warmup = if r.quick then (200, 20, 5) else (history_txns, points, warmup) in
  (* A whole number of passes over the durable points, so the measured
     queries cover every point equally often. *)
  let measured = points * max 1 (int_of_float (Float.round (ops_per_second *. r.seconds /. float_of_int points))) in
  let total = warmup + measured in
  (* The query plan comes from the seed alone, stratified so that the
     plan's luck does not move the medians: each pass over [points]
     queries (and over the warehouse × district pairs) is a seeded
     shuffle visiting every point (and pair) once. *)
  let rng = Prng.create ((r.seed * 7919) + 11) in
  let shuffled n =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let n_pairs = cfg.Tpcc.warehouses * cfg.Tpcc.districts in
  let stream n = Array.concat (List.init ((total / n) + 1) (fun _ -> shuffled n)) in
  let point_of = stream points and pair_of = stream n_pairs in
  let plan =
    Array.init total (fun i ->
        (* Warm-up queries take the stream's tail, the measured ones
           start at a pass boundary. *)
        let k = (i + total - warmup) mod total in
        let pair = pair_of.(k) in
        (point_of.(k), 1 + (pair / cfg.Tpcc.districts), 1 + (pair mod cfg.Tpcc.districts)))
  in
  let wanted = Array.make points [] in
  Array.iter (fun (p, w, d) -> wanted.(p) <- (w, d) :: wanted.(p)) plan;
  let build () =
    let eng, db = Q.tpcc_engine ~log_cache_blocks ~cfg () in
    let loaded = Q.Log_manager.total_appended_bytes (Q.Database.log db) in
    let drv = Tpcc.create db cfg in
    let per_point = history_txns / points in
    let pts =
      Array.init points (fun p ->
          ignore (Tpcc.run_mix drv ~txns:per_point);
          Q.record_point db cfg wanted.(p))
    in
    (eng, db, pts, loaded)
  in
  let eng, db, pts, loaded = setup_median r ~k:(if r.quick then 1 else 5) build in
  (if !corrupt_oracle then
     let p, w, d = plan.(0) in
     Q.corrupt_answer pts.(p) ~w ~d);
  let history = Q.Log_manager.total_appended_bytes (Q.Database.log db) - loaded in
  let cache = log_cache_blocks * 65536 in
  fact r "log history %d bytes vs log block cache %d bytes (%.1fx)" history cache
    (float_of_int history /. float_of_int cache);
  fact r "data pages %d vs pool frames %d"
    (Rw_storage.Disk.page_count (Q.Database.disk db))
    (Q.Buffer_pool.capacity (Q.Database.pool db));
  fact r "history %d txns, %d durable points, %d warm-up + %d measured queries" history_txns
    points warmup measured;
  let session = Q.Executor.create_session eng in
  let sc = scope db in
  Array.iteri
    (fun i (p, w, d) ->
      let j = i - warmup in
      let traced = j >= 0 && unit_traced r j in
      let op () =
        Q.run r ~session ~eng ~db ~cfg ~base:"tpcc" ~point:pts.(p) ~w ~d ~traced
      in
      let ok, ms, sim_us, keep = if traced then traced_unit r sc op else op () in
      keep ();
      check r ok;
      if j >= 0 then begin
        measured_op r ~traced ~host_ms:ms ~sim_us;
        measured_unit r ~host_ms:ms ~sim_us;
        calibrate r
      end)
    plan;
  Q.redrive_kept r db
