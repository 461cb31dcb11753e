(* Workload whatif_undo: selective transaction undo.  A single table of
   fixed-size cells takes blind updates, inside the exactness envelope
   (no structural page operations after set-up; values never computed
   from reads), alternating chained and independent transactions as in
   whatifsoak's mixed scenario.  Loop: commit a batch, REWIND TRANSACTION
   <recent victim> AS <view>, read the view, drop it.  The headline op is
   the REWIND statement. *)

open Harness
module Q = Asof_query
module Engine = Q.Engine
module Database = Q.Database
module Executor = Q.Executor
module Log_manager = Q.Log_manager
module Schema = Rw_catalog.Schema
module Row = Rw_engine.Row
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective
module Txn_manager = Rw_txn.Txn_manager
module Prng = Rw_storage.Prng

let table = "cells"
let value_len = 600

(* Keys [gap] apart never share a leaf (a leaf holds about 13 rows of
   [value_len] bytes), so page dependencies are exactly cell sharing. *)
let gap = 17

(* Cells [0, half) carry the chain, cells [half, 2 * half) the
   independent transactions' private writes. *)
let half = 32
let batch = 4
let pre_history_txns = 1000
let ops_per_second = 380.0
let warmup = 50

(* Undo interval (simulated µs) and a CHECKPOINT every [checkpoint_every]
   ops: the log, and with it the dependency graph REWIND builds, stays at
   about [pre_history_txns] transactions, so the op cost is flat over the
   run. *)
let retention_us = 400_000.0
let checkpoint_every = 25

let value ~seed ~g ~key =
  let head = Printf.sprintf "s%d.g%d.k%d." seed g key in
  head ^ String.make (value_len - String.length head) 'x'

let key_of cell = cell * gap

(* History transaction [g]: even ones chain through a shared cell with
   the next even one; odd ones write a private cell. *)
let cells_of g =
  if g land 1 = 0 then [ (g / 2) mod half; ((g / 2) + 1) mod half ] else [ half + (g / 2 mod half) ]

let run r =
  let seed = r.seed in
  let pre_history_txns, warmup = if r.quick then (20, 5) else (pre_history_txns, warmup) in
  let measured = max 4 (int_of_float (ops_per_second *. r.seconds)) in
  let total = warmup + measured in
  let rng = Prng.create ((seed * 7919) + 53) in
  (* Victim of op [i]: one of the [batch] transactions it just committed.
     Batches start on an even index, so position 0 is a chain transaction
     whose closure spans 3 pages, position 2 one spanning 2, and positions
     1 and 3 independent ones on 1 page.  Weights 7:7:3:3 (out of 20) keep
     the median op away from the gap between two page counts. *)
  let victims =
    Array.init total (fun _ ->
        match Prng.int rng 20 with n when n < 7 -> 0 | n when n < 14 -> 2 | n when n < 17 -> 1 | _ -> 3)
  in
  (* Oracle state: per cell, its writes newest first as (txn index, value). *)
  let writes = Array.make (2 * half) [] in
  let txn_ids = Hashtbl.create 1024 in
  let commit db g =
    let txn = Database.begin_txn db in
    List.iter
      (fun c ->
        let key = key_of c in
        let v = value ~seed ~g ~key in
        Database.update db txn ~table [ Row.Int (Int64.of_int key); Row.Text v ];
        writes.(c) <- (g, v) :: writes.(c))
      (cells_of g);
    Database.commit db txn;
    Hashtbl.replace txn_ids g (Rw_wal.Txn_id.to_int (Txn_manager.txn_id txn))
  in
  let build () =
    Array.fill writes 0 (2 * half) [];
    Hashtbl.reset txn_ids;
    let eng = Engine.create () in
    let db = Engine.create_database eng ~pool_capacity:1024 table in
    Database.with_txn db (fun txn ->
        ignore
          (Database.create_table db txn ~table
             ~columns:
               [ { Schema.name = "k"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text } ]
             ()));
    (* Every cell plus the filler rows between them; page splits are
       confined to this phase. *)
    let max_key = key_of (2 * half) in
    let k = ref 0 in
    while !k <= max_key do
      Database.with_txn db (fun txn ->
          let stop = min max_key (!k + 63) in
          while !k <= stop do
            let v = value ~seed ~g:(-1) ~key:!k in
            Database.insert db txn ~table [ Row.Int (Int64.of_int !k); Row.Text v ];
            if !k mod gap = 0 && !k / gap < 2 * half then
              writes.(!k / gap) <- [ (-1, v) ];
            incr k
          done)
    done;
    ignore (Database.checkpoint db);
    for g = 0 to pre_history_txns - 1 do
      commit db g
    done;
    Database.set_retention db (Some retention_us);
    (eng, db)
  in
  let eng, db = setup_median r ~k:(if r.quick then 1 else 5) build in
  (if !corrupt_oracle then
     match writes.(0) with (g, v) :: rest -> writes.(0) <- (g, v ^ "!") :: rest | [] -> ());
  let session = Executor.create_session eng in
  ignore (Executor.run session ("USE " ^ table));
  let log = Database.log db in
  let sc = scope db in
  let next_g = ref pre_history_txns in
  (* Replay minus the victim: for blind writes, each cell's last
     surviving write. *)
  let expected cell ~victim =
    match List.find_opt (fun (g, _) -> g <> victim) writes.(cell) with
    | Some (_, v) -> v
    | None -> assert false
  in
  for i = 0 to total - 1 do
    let j = i - warmup in
    let traced = j >= 0 && unit_traced r j in
    let name = Printf.sprintf "whatif_%d" i in
    let t_loop = host_ns () and s_loop = Database.now_us db in
    let victim_g = !next_g + victims.(i) in
    let body () =
      let before = if traced then Some (open_bracket sc db) else None in
      let sim0 = Database.now_us db in
      ignore
        (Spans.time "whatif.batch" (fun () ->
             for _ = 1 to batch do
               commit db !next_g;
               incr next_g
             done));
      (* The batch is attributed too, but is not the headline op. *)
      Option.iter
        (fun b ->
          let dlt, parts = device_and_cpu_parts sc db b in
          attribute ~op:false r ~delta_us:(Database.now_us db -. sim0) ~dlt parts)
        before;
      let victim = Hashtbl.find txn_ids victim_g in
      let stmt = Printf.sprintf "REWIND TRANSACTION %d AS %s" victim name in
      if traced then begin
        let t0 = host_ns () in
        ignore (Q.Parser.parse stmt);
        sample r "sql.parse_us" (ms_since t0 *. 1e3)
      end;
      let before = if traced then Some (open_bracket sc db) else None in
      let sim0 = Database.now_us db in
      let t0 = host_ns () in
      let ok, _ =
        Spans.time "sql.rewind_transaction" (fun () ->
            match Executor.run session stmt with
            | _ -> true
            | exception Executor.Sql_error _ -> false)
      in
      let host_ms = ms_since t0 and sim_us = Database.now_us db -. sim0 in
      (match before with
      | Some b ->
          (* The view's repaired images are written to its side file. *)
          let dlt, parts = device_and_cpu_parts sc db b in
          let pages = probe dlt Probes.whatif_pages_rewound in
          attribute r ~delta_us:sim_us ~dlt
            (("side_file", float_of_int pages *. side_write_us (Database.media db)) :: parts)
      | None -> ());
      (* Read the view: every cell row. *)
      let rows, _ =
        Spans.time "whatif.read_view" (fun () ->
            match Engine.find_database eng name with
            | None -> [||]
            | Some view ->
                Array.init (2 * half) (fun c ->
                    Database.get view ~table ~key:(Int64.of_int (key_of c))))
      in
      (ok, host_ms, sim_us, rows)
    in
    let ok, host_ms, sim_us, rows = if traced then traced_unit r sc body else body () in
    let loop_ms = ms_since t_loop and loop_sim_us = Database.now_us db -. s_loop in
    (* Oracle check (outside the clocks), then drop the view. *)
    let agrees =
      ok
      && Array.length rows = 2 * half
      && Array.for_all Fun.id
           (Array.mapi
              (fun c row ->
                row
                = Some
                    [ Row.Int (Int64.of_int (key_of c)); Row.Text (expected c ~victim:victim_g) ])
              rows)
    in
    check r agrees;
    let t_after = host_ns () and s_after = Database.now_us db in
    if ok then ignore (Executor.run session ("DROP DATABASE " ^ name));
    if (i + 1) mod checkpoint_every = 0 then ignore (Executor.run session "CHECKPOINT");
    let after_ms = ms_since t_after and after_sim_us = Database.now_us db -. s_after in
    if traced then begin
      (* Graph build and dry-run preview on the same victim, after the
         traced unit so their counters stay out of its bracket. *)
      let graph, ms = Spans.time "whatif.graph_build" (fun () -> Dep_graph.build ~log) in
      sample r "whatif.graph_build_ms" ms;
      let victim = Rw_wal.Txn_id.of_int (Hashtbl.find txn_ids victim_g) in
      let pv, ms =
        Spans.time "whatif.preview" (fun () ->
            Selective.preview ~ctx:(Database.ctx db) ~log ~graph ~victim ())
      in
      sample r "whatif.preview_ms" ms;
      match pv with
      | Ok st -> sample r "whatif.closure_size" (float_of_int st.Selective.closure_size)
      | Error _ -> ()
    end;
    if j >= 0 then begin
      measured_op r ~traced ~host_ms ~sim_us;
      measured_unit r ~host_ms:(loop_ms +. after_ms) ~sim_us:(loop_sim_us +. after_sim_us);
      calibrate r
    end
  done;
  fact r "data pages %d vs pool frames %d"
    (Rw_storage.Disk.page_count (Database.disk db))
    (Q.Buffer_pool.capacity (Database.pool db));
  fact r
    "history %d txns (%d before the loop, %d retained at the end), %d cells, batch %d, %d warm-up \
     + %d measured rewinds"
    !next_g pre_history_txns
    (List.length (Log_manager.txn_summaries log))
    (2 * half) batch warmup measured;
  fact r "log bytes %d" (Log_manager.total_appended_bytes log)
