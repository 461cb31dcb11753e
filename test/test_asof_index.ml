(* The as-of creation indexes against their scan oracles.

   Snapshot creation maps a wall time to a SplitLSN through the log
   manager's commit/checkpoint timestamp directory, and finds the
   transactions in flight at the split from the newest analysis anchor
   plus at most about one block of log.  Both must give exactly what the
   scans in [Scan_oracle] give.  Seeded random histories mix open
   transactions across the split, runtime aborts with CLRs, checkpoints,
   crashes with torn tails and tail repair, retention truncation in the
   middle of a segment, save/load, and a replica log fed by shipping and
   cut back with [truncate_from].  At many split points the SplitLSN, base
   checkpoint, commit count, loser map and loser pages must equal the
   oracles', and [Out_of_retention] must be raised exactly where the
   oracle raises it. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Media = Rw_storage.Media
module Sim_clock = Rw_storage.Sim_clock
module Fault_plan = Rw_storage.Fault_plan
module Prng = Rw_storage.Prng
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Txn_id = Rw_wal.Txn_id
module Recovery = Rw_recovery.Recovery
module Split_lsn = Rw_core.Split_lsn
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema

let check = Alcotest.(check bool)

(* Small blocks and segments, so anchors and segment boundaries are dense
   even in short histories. *)
let block_bytes = 512

let mk_log fault_plan =
  Log_manager.create ~clock:(Sim_clock.create ()) ~media:Media.ram ~block_bytes
    ~segment_bytes:4096 ~fault_plan ()

type txn = {
  id : Txn_id.t;
  mutable last : Lsn.t;
  mutable writes : (Rw_storage.Page_id.t * Log_record.op * Lsn.t) list; (* newest first *)
  mutable aborting : bool;
}

type h = {
  rng : Prng.t;
  plan : Fault_plan.t;
  mutable log : Log_manager.t;
  mutable replica : Log_manager.t option;
  mutable live : txn list;
  mutable next_txn : int;
  mutable wall : float;
  mutable checks : int;
}

let append h ?(txn = Txn_id.nil) ?(prev = Lsn.nil) body =
  Log_manager.append h.log (Log_record.make ~txn ~prev_txn_lsn:prev body)

let on_chain h t body =
  let lsn = append h ~txn:t.id ~prev:t.last body in
  t.last <- lsn;
  lsn

let pick h l = List.nth l (Prng.int h.rng (List.length l))
let retire h t = h.live <- List.filter (fun x -> x != t) h.live

let tick h = h.wall <- h.wall +. 1.0 +. Prng.float h.rng 50.0

let begin_txn h =
  let id = Txn_id.of_int h.next_txn in
  h.next_txn <- h.next_txn + 1;
  let t = { id; last = Lsn.nil; writes = []; aborting = false } in
  ignore (on_chain h t Log_record.Begin);
  h.live <- t :: h.live

let write h t =
  let page = Page_id.of_int (Prng.int h.rng 24) in
  let op = Log_record.Insert_row { slot = 0; row = String.make (1 + Prng.int h.rng 200) 'r' } in
  let lsn = on_chain h t (Log_record.Page_op { page; prev_page_lsn = Lsn.nil; op }) in
  t.writes <- (page, op, lsn) :: t.writes

let commit h t =
  tick h;
  ignore (on_chain h t (Log_record.Commit { wall_us = h.wall }));
  (* Group commit writes End records after the acknowledgement. *)
  if Prng.bool h.rng then ignore (on_chain h t Log_record.End);
  retire h t

(* Runtime rollback: Abort, one CLR per write, End — sometimes left
   unfinished, so an aborting transaction can be in flight at a split. *)
let abort h t =
  ignore (on_chain h t Log_record.Abort);
  List.iter
    (fun (page, op, lsn) ->
      match Log_record.invert op with
      | Some inverse ->
          let undo_next =
            match List.find_opt (fun (_, _, l) -> Lsn.(l < lsn)) t.writes with
            | Some (_, _, l) -> l
            | None -> Lsn.nil
          in
          ignore
            (on_chain h t (Log_record.Clr { page; prev_page_lsn = Lsn.nil; op = inverse; undo_next }))
      | None -> ())
    t.writes;
  if Prng.int h.rng 10 < 7 then begin
    ignore (on_chain h t Log_record.End);
    retire h t
  end
  else t.aborting <- true

let checkpoint h =
  tick h;
  let active = List.map (fun t -> (t.id, t.last)) h.live in
  let lsn =
    append h (Log_record.Checkpoint { wall_us = h.wall; active_txns = active; dirty_pages = [] })
  in
  Log_manager.flush h.log ~upto:lsn;
  Log_manager.set_last_checkpoint h.log lsn

(* Every transaction's later records would be on a log the generator no
   longer tracks: leave them in flight forever. *)
let abandon h = h.live <- []

let record_lsns log = List.map fst (Log_manager.dump_entries log)

let random_record h log ~from_frac ~to_frac =
  match record_lsns log with
  | [] -> None
  | l ->
      let n = List.length l in
      let lo = int_of_float (from_frac *. float_of_int n) in
      let hi = max (lo + 1) (int_of_float (to_frac *. float_of_int n)) in
      Some (List.nth l (min (n - 1) (lo + Prng.int h.rng (hi - lo))))

let pump h =
  match h.replica with
  | None -> ()
  | Some r -> (
      let rec go from =
        match Log_manager.export_from h.log ~from with
        | None -> ()
        | Some ex ->
            ignore (Log_manager.ingest_entries r ex.Log_manager.ex_entries);
            go ex.Log_manager.ex_next
      in
      let from =
        if Log_manager.record_count r = 0 then Log_manager.first_lsn h.log
        else Log_manager.end_lsn r
      in
      try go from with Log_manager.Log_truncated _ -> h.replica <- None)

(* The wall times a query could name: every commit and checkpoint time in
   the log, just before and after each, and a few arbitrary ones. *)
let probe_walls h log =
  let walls = ref [ -1.0; 0.0; h.wall +. 100.0 ] in
  List.iter
    (fun (_, data) ->
      match (Log_record.decode data).Log_record.body with
      | Log_record.Commit { wall_us } | Log_record.Checkpoint { wall_us; _ } ->
          walls := wall_us :: (wall_us -. 0.5) :: (wall_us +. 0.5) :: !walls
      | _ -> ())
    (Log_manager.dump_entries log);
  let a = Array.of_list !walls in
  List.init 40 (fun _ -> a.(Prng.int h.rng (Array.length a)))
  @ List.init 5 (fun _ -> Prng.float h.rng (h.wall +. 10.0))

let compare_at h ~what log wall_us =
  let run f = try Ok (f ~log ~wall_us) with Split_lsn.Out_of_retention w -> Error w in
  let oracle = run Scan_oracle.split_find and indexed = run Split_lsn.find in
  let where = Printf.sprintf "%s: T=%.1f" what wall_us in
  check (where ^ ": SplitLSN search agrees with the scan") true (oracle = indexed);
  match indexed with
  | Error _ -> ()
  | Ok r ->
      h.checks <- h.checks + 1;
      let base = r.Split_lsn.base_checkpoint and split = r.Split_lsn.split_lsn in
      let f = Recovery.in_flight_at ~log ~base ~split in
      let losers =
        Hashtbl.fold (fun txn lsn acc -> (Txn_id.to_int txn, Lsn.to_int lsn) :: acc) f.Recovery.if_losers []
      in
      let got = (List.sort compare losers, List.map Page_id.to_int f.Recovery.if_pages) in
      check (where ^ ": losers and loser pages agree with analysis") true
        (Scan_oracle.in_flight ~log ~base ~split = got);
      check (where ^ ": tail scan within one block plus one record") true
        (Lsn.to_int split - Lsn.to_int f.Recovery.if_from <= block_bytes + 400)

let compare_all h ~what =
  List.iter (compare_at h ~what h.log) (probe_walls h h.log);
  match h.replica with
  | Some r -> List.iter (compare_at h ~what:(what ^ " (replica)") r) (probe_walls h r)
  | None -> ()

let step h =
  let open_writers = List.filter (fun t -> not t.aborting) h.live in
  match Prng.int h.rng 100 with
  | n when n < 14 -> begin_txn h
  | n when n < 44 -> if open_writers <> [] then write h (pick h open_writers)
  | n when n < 58 -> if open_writers <> [] then commit h (pick h open_writers)
  | n when n < 63 -> if open_writers <> [] then abort h (pick h open_writers)
  | n when n < 66 -> (
      match List.filter (fun t -> t.aborting) h.live with
      | [] -> ()
      | l ->
          let t = pick h l in
          ignore (on_chain h t Log_record.End);
          retire h t)
  | n when n < 73 -> checkpoint h
  | n when n < 79 -> Log_manager.flush_all h.log
  | n when n < 80 ->
      (* A clock stepped back (a promoted replica's own clock): wall
         times in the log stop being ordered. *)
      h.wall <- h.wall -. Prng.float h.rng 200.0
  | n when n < 82 ->
      Log_manager.crash h.log;
      ignore (Log_manager.repair_tail h.log);
      abandon h;
      compare_all h ~what:"after crash + repair_tail"
  | n when n < 83 -> (
      (* Retention: cut at an arbitrary record, usually mid-segment. *)
      match random_record h h.log ~from_frac:0.1 ~to_frac:0.5 with
      | Some lsn ->
          Log_manager.truncate_before h.log lsn;
          compare_all h ~what:"after truncate_before"
      | None -> ())
  | n when n < 85 ->
      Log_manager.flush_all h.log;
      let restored = mk_log h.plan in
      Log_manager.restore_entries restored (Log_manager.dump_entries h.log);
      h.log <- restored;
      compare_all h ~what:"after save/load"
  | n when n < 90 ->
      if h.replica = None then h.replica <- Some (mk_log h.plan);
      pump h
  | n when n < 93 -> (
      match h.replica with
      | Some r -> (
          match random_record h r ~from_frac:0.5 ~to_frac:1.0 with
          | Some lsn ->
              ignore (Log_manager.truncate_from r lsn);
              compare_all h ~what:"after replica truncate_from";
              pump h
          | None -> ())
      | None -> ())
  | n when n < 96 -> (
      (* A demoted primary cut back to a failover point. *)
      match random_record h h.log ~from_frac:0.8 ~to_frac:1.0 with
      | Some lsn ->
          ignore (Log_manager.truncate_from h.log lsn);
          abandon h;
          (match h.replica with
          | Some r when Lsn.(Log_manager.end_lsn r > lsn) -> ignore (Log_manager.truncate_from r lsn)
          | _ -> ());
          compare_all h ~what:"after truncate_from"
      | None -> ())
  | _ -> tick h

let history seed =
  let plan = Fault_plan.create ~torn_log_tail_rate:0.7 ~seed () in
  let h =
    {
      rng = Prng.create seed;
      plan;
      log = mk_log plan;
      replica = None;
      live = [];
      next_txn = 1;
      wall = 0.0;
      checks = 0;
    }
  in
  for i = 1 to 500 do
    step h;
    if i mod 40 = 0 then compare_all h ~what:(Printf.sprintf "seed %d, step %d" seed i)
  done;
  check (Printf.sprintf "seed %d: many split points compared" seed) true (h.checks > 200)

let test_differential () = List.iter history (List.init 16 succ)

(* A transaction open at a checkpoint, with no commit between the
   checkpoint and the requested time: the split lands on the checkpoint
   itself, and the open transaction's writes must stay invisible. *)
let test_split_on_checkpoint () =
  let clock = Sim_clock.create () in
  let db = Database.create ~name:"d" ~clock ~media:Media.ram () in
  let cols =
    [ { Schema.name = "id"; ctype = Schema.Int }; { Schema.name = "val"; ctype = Schema.Text } ]
  in
  Database.with_txn db (fun txn -> ignore (Database.create_table db txn ~table:"t" ~columns:cols ()));
  Database.with_txn db (fun txn -> Database.insert db txn ~table:"t" [ Row.Int 1L; Row.Text "old" ]);
  Sim_clock.advance_us clock 1_000.0;
  let open_txn = Database.begin_txn db in
  Database.update db open_txn ~table:"t" [ Row.Int 1L; Row.Text "uncommitted" ];
  ignore (Database.checkpoint db);
  Sim_clock.advance_us clock 1_000.0;
  let t = Sim_clock.now_us clock in
  let split = Split_lsn.find ~log:(Database.log db) ~wall_us:t in
  check "split lands on the base checkpoint" true
    (Lsn.equal split.Split_lsn.split_lsn split.Split_lsn.base_checkpoint);
  let view = Database.create_as_of_snapshot db ~name:"v" ~wall_us:t in
  check "open transaction's write is invisible" true
    (Database.get view ~table:"t" ~key:1L = Some [ Row.Int 1L; Row.Text "old" ]);
  Database.commit db open_txn

(* Anchor page sets are charged to [index_bytes]: a long transaction
   writing distinct pages pins a page-set node per page across its
   anchors, which a transaction rewriting one page does not.  Dropping the
   tail gives every charge back. *)
let test_anchor_accounting () =
  let index_bytes log = (Log_manager.segment_stats log).Log_manager.ss_index_bytes in
  let run ~distinct =
    let log = mk_log (Fault_plan.create ~seed:1 ()) in
    let before = index_bytes log in
    let txn = Txn_id.of_int 1 in
    let first = Log_manager.append log (Log_record.make ~txn ~prev_txn_lsn:Lsn.nil Log_record.Begin) in
    for i = 1 to 400 do
      let page = Page_id.of_int (if distinct then i else 0) in
      let op = Log_record.Insert_row { slot = 0; row = "r" } in
      ignore
        (Log_manager.append log
           (Log_record.make ~txn ~prev_txn_lsn:Lsn.nil
              (Log_record.Page_op { page; prev_page_lsn = Lsn.nil; op })))
    done;
    let grown = index_bytes log in
    ignore (Log_manager.truncate_from log first);
    check "tail drop returns every charge" true (index_bytes log = before);
    grown
  in
  let distinct = run ~distinct:true and same = run ~distinct:false in
  check "distinct pages charge their set entries" true (distinct - same >= 32 * 350)

let () =
  Alcotest.run "asof_index"
    [
      ( "as-of indexes",
        [
          Alcotest.test_case "directory and anchors equal the scan oracles" `Quick
            test_differential;
          Alcotest.test_case "split on a checkpoint with an open transaction" `Quick
            test_split_on_checkpoint;
          Alcotest.test_case "anchor page sets are charged and released" `Quick
            test_anchor_accounting;
        ] );
    ]
