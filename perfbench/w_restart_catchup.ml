(* Workload restart_catchup: the two forward-redo users.  Each cycle runs
   a TPC-C burst on a primary with one attached replica, ships it over a
   fault-free channel, leaves one transaction in flight, crashes the
   primary, restarts it with instant recovery, answers the first query,
   drains the recovery backlog, checkpoints, and ships the restart's own
   records.  The headline op is crash → first answer.

   Data sits on SAS and the log on SSD (instant restart's regime, as in
   e9); a checkpoint closes every cycle, so every restart's analysis
   covers one burst and the per-cycle state stays steady. *)

open Harness
module Q = Asof_query
module Tpcc = Q.Tpcc
module Database = Q.Database
module Log_manager = Q.Log_manager
module Disk = Rw_storage.Disk
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Slotted_page = Rw_storage.Slotted_page
module Row = Rw_engine.Row
module Channel = Rw_repl.Channel
module Shipper = Rw_repl.Shipper
module Replica = Rw_repl.Replica
module Recovery = Rw_recovery.Recovery
module Prng = Rw_storage.Prng

let burst_txns = 40
let cycles_per_second = 15.0
let warmup_cycles = 4
let pool_capacity = 256
let channel_latency_us = 200.0
let channel_mb_per_s = 100.0
let straggler_key c = Int64.of_int (1_000_000 + c)

(* The canonical form of a page (as [As_of_snapshot.page_string] defines
   it): logical header fields and slot rows, without the layout artifacts
   that unlogged compaction makes path-dependent. *)
let canonical page =
  let b = Buffer.create Page.page_size in
  Buffer.add_string b (Bytes.sub_string page 0 20);
  Buffer.add_string b (Bytes.sub_string page 24 24);
  Slotted_page.iter page (fun i row ->
      Buffer.add_string b (Printf.sprintf "|%d:%d:" i (String.length row));
      Buffer.add_string b row);
  Buffer.contents b

(* Both sides have just flushed every dirty page (the primary at its
   checkpoint, the replica on receiving it), so their disks hold their
   current images; read them without pricing. *)
let disks_equal a b =
  let da = Database.disk a and db = Database.disk b in
  let n = max (Disk.page_count da) (Disk.page_count db) in
  let rec go i =
    i >= n
    ||
    let pid = Page_id.of_int i in
    String.equal
      (canonical (Disk.read_page_nocost da pid))
      (canonical (Disk.read_page_nocost db pid))
    && go (i + 1)
  in
  go 0

let run r =
  let cfg = { Tpcc.default_config with Tpcc.seed = r.seed } in
  let burst_txns, warmup_cycles = if r.quick then (10, 1) else (burst_txns, warmup_cycles) in
  let measured = max 4 (int_of_float (cycles_per_second *. r.seconds)) in
  let total = warmup_cycles + measured in
  let rng = Prng.create ((r.seed * 7919) + 37) in
  let plan =
    Array.init total (fun _ ->
        (1 + Prng.int rng cfg.Tpcc.warehouses, 1 + Prng.int rng cfg.Tpcc.districts))
  in
  let build () =
    let clock = Rw_storage.Sim_clock.create () in
    (* [Engine.create] would install this; the primary is built directly. *)
    Trace.install_clock (fun () -> Rw_storage.Sim_clock.now_us clock);
    let db =
      Database.create ~name:"tpcc" ~clock ~media:Rw_storage.Media.sas
        ~log_media:Rw_storage.Media.ssd ~pool_capacity
        ~checkpoint_interval_us:1e15 ()
    in
    Tpcc.load db cfg;
    ignore (Database.checkpoint db);
    let replica = Replica.of_primary ~name:"replica" db in
    (db, replica)
  in
  let db0, replica = setup_median r ~k:(if r.quick then 1 else 5) build in
  let db = ref db0 in
  let clock = Database.clock db0 in
  let channel () =
    Channel.create ~clock ~seed:r.seed ~latency_us:channel_latency_us
      ~mb_per_s:channel_mb_per_s ()
  in
  let chan = ref (channel ()) in
  let shipper = ref (Shipper.attach ~primary:db0 ~replica ~channel:!chan ()) in
  let devices () =
    devices !db
    @ [
        {
          kind = Log_device;
          media = Database.log_media (Replica.db replica);
          io = Log_manager.stats (Database.log (Replica.db replica));
        };
        {
          kind = Data_device;
          media = Database.media (Replica.db replica);
          io = Disk.stats (Database.disk (Replica.db replica));
        };
      ]
  in
  let sc = { clock; devices; cache = (fun () -> Some (Database.prepared_cache !db)) } in
  (* One catch-up: ship everything durable, timed on both clocks; the
     simulated time splits into the channel and the replica's devices. *)
  let ship ~traced =
    let lag = Shipper.lag_segments !shipper in
    let bytes0 = Shipper.shipped_bytes !shipper in
    let sends0 = (Channel.stats !chan).Channel.sends in
    let rlog = Log_manager.stats (Database.log (Replica.db replica)) in
    let rdisk = Disk.stats (Database.disk (Replica.db replica)) in
    let rmedia = Database.media (Replica.db replica) in
    let rlog_media = Database.log_media (Replica.db replica) in
    let priced () = priced_us rlog_media rlog +. priced_us rmedia rdisk in
    let replica_us0 = priced () in
    let (), ms = Spans.time "repl.catch_up" (fun () -> Shipper.catch_up !shipper) in
    if traced then begin
      let bytes = Shipper.shipped_bytes !shipper - bytes0 in
      let sends = (Channel.stats !chan).Channel.sends - sends0 in
      sample r "repl.lag_segments" (float_of_int lag);
      sample r "repl.ship_ms" ms;
      sample r "repl.shipped_bytes" (float_of_int bytes);
      sample r "repl.apply_sim_ms" ((priced () -. replica_us0) /. 1e3);
      sample r "repl.channel_sim_ms"
        (((float_of_int sends *. channel_latency_us)
         +. (float_of_int bytes /. channel_mb_per_s))
        /. 1e3)
    end;
    Shipper.state !shipper = Shipper.Caught_up
  in
  let cycle c =
    let measuring = c >= warmup_cycles in
    let traced = measuring && unit_traced r (c - warmup_cycles) in
    let w, d = plan.(c) in
    let body () =
      (* The burst, then the answer the first query after the crash must
         give (oracle work, outside the clocks). *)
      let drv = Tpcc.create !db { cfg with Tpcc.seed = cfg.Tpcc.seed + (1009 * (c + 1)) } in
      ignore (Spans.time "tpcc.burst" (fun () -> Tpcc.run_mix drv ~txns:burst_txns));
      let shipped = ship ~traced in
      let t_oracle = host_ns () and s_oracle = Database.now_us !db in
      let expected = Tpcc.stock_level !db cfg ~w ~d ~threshold:Q.threshold in
      let expected = if !corrupt_oracle && c = 0 then expected + 1 else expected in
      let oracle = (ms_since t_oracle, Database.now_us !db -. s_oracle) in
      (* A transaction left in flight: restart must roll it back. *)
      let straggler = Database.begin_txn !db in
      Database.insert !db straggler ~table:"item"
        [ Row.Int (straggler_key c); Row.Int 42L; Row.Text "in flight" ];
      Log_manager.flush_all (Database.log !db);
      (* Crash → first answer. *)
      let before = if traced then Some (take sc) else None in
      let sim0 = Database.now_us !db in
      let t0 = host_ns () in
      let (db', answer, backlog, open_ms), _ =
        Spans.time "restart.first_query" (fun () ->
            let db', open_ms =
              Spans.time "recovery.crash_and_reopen" (fun () ->
                  Database.crash_and_reopen ~instant:true !db)
            in
            let backlog = Database.recovery_backlog db' in
            let answer, _ =
              Spans.time "access.stock_level" (fun () ->
                  Tpcc.stock_level db' cfg ~w ~d ~threshold:Q.threshold)
            in
            (db', answer, backlog, open_ms))
      in
      let host_ms = ms_since t0 in
      let sim_us = Database.now_us db' -. sim0 in
      db := db';
      (match before with
      | Some b ->
          let dlt = diff (take sc) b in
          attribute r ~delta_us:sim_us ~dlt
            [
              ("log_device", dlt.log_us);
              ("data_device", dlt.data_us);
              ("access_cpu", access_read_us *. float_of_int (fetches db'));
            ];
          sample r "recovery.open_ms" open_ms;
          sample r "recovery.backlog_pages" (float_of_int backlog);
          sample r "restart.cycles" 1.0
      | None -> ());
      let loser_gone = Database.get db' ~table:"item" ~key:(straggler_key c) = None in
      (* Drain, checkpoint, re-attach the shipper and ship the restart's
         records; then the replica must equal the primary page for page. *)
      let (), drain_ms = Spans.time "recovery.drain" (fun () -> Database.recovery_drain_all db') in
      let stats = Option.get (Database.last_recovery_stats db') in
      ignore (Database.checkpoint db');
      Shipper.detach !shipper;
      chan := channel ();
      shipper := Shipper.attach ~primary:db' ~replica ~channel:!chan ();
      let shipped' = ship ~traced in
      if traced then begin
        sample r "recovery.drain_ms" drain_ms;
        sample r "recovery.redone_ops" (float_of_int stats.Recovery.redone_ops);
        sample r "recovery.full_recovery_sim_ms" (stats.Recovery.time_to_full_recovery_us /. 1e3)
      end;
      (answer = expected && loser_gone && shipped && shipped', host_ms, sim_us, oracle)
    in
    let t0 = host_ns () and s0 = Database.now_us !db in
    match if traced then traced_unit r sc body else body () with
    | exception e ->
        (* An engine exception fails the cycle; the run goes on. *)
        fact r "cycle %d raised %s" c (Printexc.to_string e);
        check r false
    | ok, host_ms, sim_us, (oracle_ms, oracle_sim_us) ->
        let cycle_ms = ms_since t0 -. oracle_ms in
        let cycle_sim_us = Database.now_us !db -. s0 -. oracle_sim_us in
        check r (ok && disks_equal !db (Replica.db replica));
        if measuring then begin
          measured_op r ~traced ~host_ms ~sim_us;
          measured_unit r ~host_ms:cycle_ms ~sim_us:cycle_sim_us;
          calibrate r
        end
  in
  for c = 0 to total - 1 do
    cycle c
  done;
  Shipper.detach !shipper;
  let dbf = !db in
  fact r "data pages %d vs pool frames %d" (Disk.page_count (Database.disk dbf)) pool_capacity;
  fact r "log bytes %d after %d cycles of %d txns" (Log_manager.total_appended_bytes (Database.log dbf))
    total burst_txns;
  fact r "%d warm-up + %d measured cycles" warmup_cycles measured
