(* The as-of query both as-of workloads run, end to end through SQL:
   CREATE DATABASE … AS SNAPSHOT OF … AS OF t, the paper's stock-level
   query on the view, DROP DATABASE.  Also the TPC-C engine set-up they
   share and the durable points their oracles are recorded at. *)

open Harness
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module As_of_snapshot = Rw_core.As_of_snapshot
module Page_undo = Rw_core.Page_undo
module Buffer_pool = Rw_buffer.Buffer_pool
module Latch = Rw_buffer.Latch
module Executor = Rw_sql.Executor
module Parser = Rw_sql.Parser
module Tpcc = Rw_workload.Tpcc
module Page = Rw_storage.Page
module Log_manager = Rw_wal.Log_manager

let threshold = 15

(* A TPC-C primary under the experiments' group-commit operating point
   (flush per 64 KiB of log tail or 2 ms of waiter age). *)
let tpcc_engine ?(pool_capacity = 1024) ?log_cache_blocks ~cfg () =
  let eng = Engine.create () in
  let db =
    Engine.create_database eng ~pool_capacity ~checkpoint_interval_us:2_000_000.0
      ?log_cache_blocks "tpcc"
  in
  Database.set_group_commit db ~max_batch_bytes:(64 * 1024) ~max_delay_us:2_000.0;
  Tpcc.load db cfg;
  ignore (Database.checkpoint db);
  (eng, db)

(* A durable point: commits forced durable, then the wall time an as-of
   query will target and the stock-level answers the primary gives
   there for the (warehouse, district) pairs the queries will ask. *)
type point = { wall_us : float; answers : (int * int, int) Hashtbl.t }

(* The self-test's corruption: one recorded answer off by one. *)
let corrupt_answer point ~w ~d =
  Hashtbl.replace point.answers (w, d) (1 + Hashtbl.find point.answers (w, d))

let record_point db cfg wanted =
  ignore (Database.flush_commits db);
  let wall_us = Database.now_us db in
  let answers = Hashtbl.create 4 in
  List.iter
    (fun (w, d) ->
      if not (Hashtbl.mem answers (w, d)) then
        Hashtbl.replace answers (w, d) (Tpcc.stock_level db cfg ~w ~d ~threshold))
    wanted;
  { wall_us; answers }

(* [core.undo.rewind_us_per_page]: host µs per page of
   [Page_undo.prepare_page_as_of] re-driven, at the end of the run, on
   copies of the primary images and the SplitLSNs that the last traced
   queries rewound.  Re-driving right after each query would leave its
   allocation to the next, untraced, op and bias [trace.overhead_pct];
   keeping the newest pages keeps their SplitLSNs inside a retention
   window, and any that retention has since reclaimed are skipped. *)
let kept_rewinds : (Page.t * Rw_storage.Lsn.t) Queue.t = Queue.create ()
let keep_limit = 512

let keep_rewinds db ~split pages =
  List.iter
    (fun pid ->
      let page =
        Buffer_pool.with_page (Database.pool db) pid ~mode:Latch.Shared (fun p -> Page.copy p)
      in
      Queue.push (page, split) kept_rewinds;
      if Queue.length kept_rewinds > keep_limit then ignore (Queue.pop kept_rewinds))
    pages

let redrive_kept r db =
  let log = Database.log db in
  Queue.iter
    (fun (page, split) ->
      if Rw_storage.Lsn.(split >= Log_manager.first_lsn log) then begin
        let t0 = host_ns () in
        ignore (Page_undo.prepare_page_as_of ~log ~page ~as_of:split);
        sample r "core.undo.rewind_us_per_page" (ms_since t0 *. 1e3)
      end)
    kept_rewinds;
  Queue.clear kept_rewinds

let counter = ref 0

(* What a traced query reads off its view before dropping it. *)
type view_info = {
  create_ms : float;
  create_sim_us : float;
  query_ms : float;
  fetches : int;  (** page reads through the view's pool *)
  rewound : Rw_storage.Page_id.t list;
  side_hits : int;
  side_bytes : int;
  split : Rw_storage.Lsn.t;
  undo_ops : int;
}

let view_info ~create_ms ~create_sim_us ~query_ms view =
  let snap = Option.get (Database.snapshot_handle view) in
  let pool = Database.pool view in
  let n = As_of_snapshot.rewind_count snap in
  {
    create_ms;
    create_sim_us;
    query_ms;
    fetches = Buffer_pool.hits pool + Buffer_pool.misses pool;
    rewound =
      List.filteri (fun i _ -> i < n) (As_of_snapshot.rewinds snap)
      |> List.map (fun rc -> rc.As_of_snapshot.rc_page);
    side_hits = As_of_snapshot.side_file_hits snap;
    side_bytes = As_of_snapshot.sparse_bytes snap;
    split = As_of_snapshot.split_lsn snap;
    undo_ops = As_of_snapshot.undo_ops snap;
  }

(* One as-of query against database [base] at [point]; returns whether
   the view's answer equals the recorded one (a refusal counts as a
   mismatch), the op's host ms and simulated µs, and a thunk that keeps
   copies of the pages it rewound for {!redrive_kept} (run it outside the
   traced unit's counter bracket).  While tracing ([traced]) it also
   records the per-layer samples and attributes the query's simulated
   time to its layers, as a headline op unless [op] is false. *)
let run ?(op = true) r ~session ~eng ~db ~cfg ~base ~point ~w ~d ~traced =
  incr counter;
  let name = Printf.sprintf "asof_%d" !counter in
  let create =
    Printf.sprintf "CREATE DATABASE %s AS SNAPSHOT OF %s AS OF %.9f" name base
      (point.wall_us /. 1e6)
  in
  if traced then begin
    let t0 = host_ns () in
    ignore (Parser.parse create);
    sample r "sql.parse_us" (ms_since t0 *. 1e3)
  end;
  let clock = Database.clock db in
  let before = if traced then Some (take (scope db)) else None in
  let sim0 = Sim_clock.now_us clock in
  let t0 = host_ns () in
  let (answer, info), _ =
    Spans.time "asof.query" (fun () ->
        match Spans.time "sql.create_snapshot" (fun () -> Executor.run session create) with
        | exception (Executor.Sql_error _ | Rw_core.Split_lsn.Out_of_retention _) -> (None, None)
        | _, create_ms ->
            let create_sim_us = Sim_clock.now_us clock -. sim0 in
            let view = Engine.find_database_exn eng name in
            let answer, query_ms =
              Spans.time "access.stock_level" (fun () ->
                  Tpcc.stock_level view cfg ~w ~d ~threshold)
            in
            let info =
              if traced then Some (view_info ~create_ms ~create_sim_us ~query_ms view) else None
            in
            ignore
              (Spans.time "sql.drop" (fun () -> Executor.run session ("DROP DATABASE " ^ name)));
            (Some answer, info))
  in
  let host_ms = ms_since t0 in
  let sim_us = Sim_clock.now_us clock -. sim0 in
  let keep =
    match (before, info) with
    | Some b, Some v ->
        let dlt = diff (take (scope db)) b in
        let m = Database.media db in
        attribute ~op r ~delta_us:sim_us ~dlt
          [
            ("log_device", dlt.log_us);
            ("data_device", dlt.data_us);
            ( "side_file",
              (float_of_int v.side_hits *. side_read_us m)
              +. (float_of_int (List.length v.rewound) *. side_write_us m) );
            ("access_cpu", access_read_us *. float_of_int v.fetches);
          ];
        sample r "core.snapshot.create_ms" v.create_ms;
        sample r "core.snapshot.create_sim_ms" (v.create_sim_us /. 1e3);
        sample r "access.query_ms" v.query_ms;
        sample r "storage.side_file_bytes_per_query" (float_of_int v.side_bytes);
        sample r "core.snapshot.in_flight_undo_ops" (float_of_int v.undo_ops);
        sample r "asof.queries" 1.0;
        fun () -> keep_rewinds db ~split:v.split v.rewound
    | _ -> ignore
  in
  let ok = answer <> None && Hashtbl.find_opt point.answers (w, d) = answer in
  (ok, host_ms, sim_us, keep)
