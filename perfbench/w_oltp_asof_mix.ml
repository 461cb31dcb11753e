(* Workload oltp_asof_mix: the paper's §6.3 set-up.  [Session_manager]
   interleaves two TPC-C writer sessions with two reader sessions on one
   log, round-robin on one thread.  Each reader step is one as-of query of
   the asof_audit shape at a recent time-back; data pages fit in the
   buffer pool and the log range readers touch fits in the block cache.
   The headline op is the writer step: [txns_per_step] transactions of
   the TPC-C mix ([Tpcc.run_mix], as e8 runs its writers). *)

open Harness
module Q = Asof_query
module Tpcc = Q.Tpcc
module Database = Q.Database
module Session_manager = Rw_session.Session_manager
module Prng = Rw_storage.Prng

let writers = 2
let readers = 2

(* Transactions per writer step: as in e8, where two writers at five
   transactions a round put one reader's query cost near a third of the
   writers'.  A step of five mixed transactions, unlike one transaction,
   has a median that does not flip between two transaction kinds. *)
let txns_per_step = 5
let pre_history_txns = 1000
let rounds_per_second = 180.0
let warmup_rounds = 20

(* A durable point is recorded every [point_every] rounds; a reader
   targets one of the [recent] newest points. *)
let point_every = 4
let recent = 4

(* Undo interval (simulated µs) and a CHECKPOINT every [checkpoint_every]
   rounds: the log is reclaimed behind the interval at each checkpoint,
   so memory and per-op cost stay flat over a long run while every reader
   target (at most [recent * point_every] rounds back) stays well inside
   it.  (Snapshot creation forces checkpoints too, but those restart the
   automatic checkpoint timer without enforcing retention.) *)
let retention_us = 2_000_000.0
let checkpoint_every = 50

let run r =
  let cfg = { Tpcc.default_config with Tpcc.seed = r.seed } in
  let pre_history_txns, warmup_rounds =
    if r.quick then (50, 4) else (pre_history_txns, warmup_rounds)
  in
  let measured = max 4 (int_of_float (rounds_per_second *. r.seconds)) in
  let total = warmup_rounds + measured in
  let rng = Prng.create ((r.seed * 7919) + 23) in
  (* Reader plan, from the seed alone: at round t reader k asks (w, d) at
     the point [t / point_every - back], clamped to the first point. *)
  let n_points = (total / point_every) + 1 in
  let plan =
    Array.init total (fun t ->
        Array.init readers (fun _ ->
            let back = Prng.int rng recent in
            let w = 1 + Prng.int rng cfg.Tpcc.warehouses in
            let d = 1 + Prng.int rng cfg.Tpcc.districts in
            (max 0 ((t / point_every) - back), w, d)))
  in
  let wanted = Array.make n_points [] in
  Array.iter
    (Array.iter (fun (p, w, d) -> wanted.(p) <- (w, d) :: wanted.(p)))
    plan;
  let build () =
    let eng, db = Q.tpcc_engine ~cfg () in
    let drv = Tpcc.create db cfg in
    ignore (Tpcc.run_mix drv ~txns:pre_history_txns);
    Database.set_retention db (Some retention_us);
    (eng, db)
  in
  let eng, db = setup_median r ~k:(if r.quick then 1 else 5) build in
  let log = Database.log db in
  let points = Array.make n_points None in
  points.(0) <- Some (Q.record_point db cfg wanted.(0));
  (if !corrupt_oracle then
     let p, w, d = plan.(0).(0) in
     Q.corrupt_answer (Option.get points.(p)) ~w ~d);
  fact r "data pages %d vs pool frames %d"
    (Rw_storage.Disk.page_count (Database.disk db))
    (Q.Buffer_pool.capacity (Database.pool db));
  let sm = Session_manager.create db in
  let session = Q.Executor.create_session eng in
  ignore (Q.Executor.run session "USE tpcc");
  let sc = scope db in
  let round = ref 0 in
  let measuring () = !round >= warmup_rounds in
  let traced () = measuring () && unit_traced r (!round - warmup_rounds) in
  let new_orders = ref 0 in
  let writer k =
    let drv = Tpcc.create db { cfg with Tpcc.seed = cfg.Tpcc.seed + (101 * (k + 1)) } in
    Session_manager.open_writer sm
      ~name:(Printf.sprintf "writer-%d" k)
      ~step:(fun _ ->
        let tr = traced () in
        let before = if tr then Some (open_bracket sc db) else None in
        let sim0 = Database.now_us db in
        let stats, ms =
          Spans.time "tpcc.writer_step" (fun () ->
              match Tpcc.run_mix drv ~txns:txns_per_step with
              | stats -> Some stats
              | exception Failure _ -> None)
        in
        let sim_us = Database.now_us db -. sim0 in
        check r (stats <> None);
        Option.iter
          (fun b ->
            let dlt, parts = device_and_cpu_parts sc db b in
            attribute r ~delta_us:sim_us ~dlt parts)
          before;
        if measuring () then begin
          Option.iter (fun st -> new_orders := !new_orders + st.Tpcc.new_orders) stats;
          measured_op r ~traced:tr ~host_ms:ms ~sim_us
        end)
  in
  (* Readers are scheduled as sessions whose step creates, queries and
     drops its own snapshot; [open_reader] would pin one snapshot for the
     session's whole life instead.  A reader query is attributed but is
     not a headline op, and the page copies it keeps for
     [core.undo.rewind_us_per_page] are made after the round, outside
     its counter bracket. *)
  let kept = ref [] in
  let reader k =
    Session_manager.open_writer sm
      ~name:(Printf.sprintf "reader-%d" k)
      ~step:(fun _ ->
        let p, w, d = plan.(!round).(k) in
        let point = Option.get points.(p) in
        let tr = traced () in
        let ok, ms, _sim_us, keep =
          Q.run r ~session ~eng ~db ~cfg ~base:"tpcc" ~point ~w ~d ~traced:tr ~op:false
        in
        check r ok;
        if measuring () then sample r "session.reader_query_ms" ms;
        kept := keep :: !kept)
  in
  let wsessions = List.init writers writer in
  let rsessions = List.init readers reader in
  let busy l = List.fold_left (fun a s -> a +. Session_manager.busy_us s) 0.0 l in
  let busy0 = ref (0.0, 0.0) in
  let log_bytes0 = Q.Log_manager.total_appended_bytes log in
  for t = 0 to total - 1 do
    round := t;
    if t = warmup_rounds then busy0 := (busy wsessions, busy rsessions);
    (* Oracle work runs between rounds, outside the loop's clocks. *)
    if t > 0 && t mod point_every = 0 then
      points.(t / point_every) <- Some (Q.record_point db cfg wanted.(t / point_every));
    if measuring () then calibrate r;
    let t0 = host_ns () and s0 = Database.now_us db in
    let step () =
      Session_manager.run sm ~rounds:1;
      if (t + 1) mod checkpoint_every = 0 then begin
        let before = if traced () then Some (open_bracket sc db) else None in
        let sim0 = Database.now_us db in
        ignore (Spans.time "sql.checkpoint" (fun () -> Q.Executor.run session "CHECKPOINT"));
        Option.iter
          (fun b ->
            let dlt, parts = device_and_cpu_parts sc db b in
            attribute ~op:false r ~delta_us:(Database.now_us db -. sim0) ~dlt parts)
          before
      end
    in
    if traced () then traced_unit r sc step else step ();
    if measuring () then measured_unit r ~host_ms:(ms_since t0) ~sim_us:(Database.now_us db -. s0);
    List.iter (fun keep -> keep ()) (List.rev !kept);
    kept := []
  done;
  let wb0, rb0 = !busy0 in
  let wbusy = busy wsessions -. wb0 and rbusy = busy rsessions -. rb0 in
  sample r "session.reader_busy_share" (ratio rbusy (wbusy +. rbusy));
  sample r "session.tpmc_sim" (ratio (float_of_int !new_orders) (r.loop_sim_us /. 60e6));
  let per_round = (Q.Log_manager.total_appended_bytes log - log_bytes0) / total in
  fact r
    "log per round %d bytes; reader time-back <= %d rounds = %d bytes vs log block cache %d \
     bytes"
    per_round (recent * point_every) (per_round * recent * point_every) (128 * 65536);
  fact r
    "%d writers x %d mixed txns + %d readers per round, %d warm-up + %d measured rounds, point \
     every %d rounds"
    writers txns_per_step readers warmup_rounds measured point_every;
  Q.redrive_kept r db
