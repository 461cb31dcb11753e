(* What-if selective undo: dependency-graph shape on a known history,
   the multi-seed byte-equality property campaign (selective replay vs
   the replay-from-scratch oracle), crash atomicity mid-selective-replay,
   and the SQL REWIND TRANSACTION surface. *)

module Media = Rw_storage.Media
module Page_id = Rw_storage.Page_id
module Txn_id = Rw_wal.Txn_id
module Engine = Rw_engine.Engine
module Database = Rw_engine.Database
module Row = Rw_engine.Row
module Schema = Rw_catalog.Schema
module Executor = Rw_sql.Executor
module Dep_graph = Rw_whatif.Dep_graph
module Selective = Rw_whatif.Selective
module Experiments = Rw_workload.Experiments

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cols =
  [ { Schema.name = "k"; ctype = Schema.Int }; { Schema.name = "v"; ctype = Schema.Text } ]

(* 600 B values: ~13 rows per 8 KiB leaf, so keys 20 apart land on
   different leaves and updates never split pages. *)
let value ~round ~key =
  let head = Printf.sprintf "r%03d-k%03d-" round key in
  head ^ String.make (600 - String.length head) 'x'

let build_base db =
  Database.with_txn db (fun txn ->
      ignore (Database.create_table db txn ~table:"t" ~columns:cols ());
      for k = 0 to 39 do
        Database.insert db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text (value ~round:0 ~key:k) ]
      done);
  ignore (Database.checkpoint db)

let apply_round db ~round keys =
  Database.with_txn db (fun txn ->
      List.iter
        (fun k ->
          Database.update db txn ~table:"t" [ Row.Int (Int64.of_int k); Row.Text (value ~round ~key:k) ])
        keys)

(* The four-transaction history the direct tests share: T1 writes the
   leaves of keys 0 and 20, T2 depends on it through key 0's leaf, T3
   through key 20's leaf, T4 is independent on key 35's leaf. *)
let history = [ (1, [ 0; 20 ]); (2, [ 0 ]); (3, [ 20 ]); (4, [ 35 ]) ]

let build_history ?(skip = []) () =
  let eng = Engine.create ~media:Media.ram () in
  let db = Engine.create_database eng ~pool_capacity:256 "wf" in
  build_base db;
  List.iter
    (fun (round, keys) -> if not (List.mem round skip) then apply_round db ~round keys)
    history;
  (eng, db)

let dump db =
  let acc = ref [] in
  Database.scan db ~table:"t" ~f:(fun r -> acc := r :: !acc);
  List.sort compare !acc

(* The last [n] graph nodes are the history transactions, in order. *)
let history_node graph ~ordinal =
  let nodes = Dep_graph.nodes graph in
  List.nth nodes (List.length nodes - List.length history + ordinal - 1)

(* --- dependency graph shape on the known history --- *)

let test_graph_shape () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  check "built from the append-time index" true (Dep_graph.built_from_index graph);
  let t1 = history_node graph ~ordinal:1 in
  let t4 = history_node graph ~ordinal:4 in
  check "history txns are not structural" true (not t1.Dep_graph.structural);
  check_int "T1 wrote two pages" 2 (List.length t1.Dep_graph.writes);
  let closure_ids n =
    Dep_graph.closure graph n.Dep_graph.txn
    |> List.map (fun m -> Txn_id.to_int m.Dep_graph.txn)
    |> List.sort compare
  in
  let t1_id = Txn_id.to_int t1.Dep_graph.txn in
  check "T1's closure is {T1,T2,T3}" true
    (closure_ids t1 = [ t1_id; t1_id + 1; t1_id + 2 ]);
  check "T4 is fully independent" true (closure_ids t4 = [ Txn_id.to_int t4.Dep_graph.txn ]);
  check_int "T1 has two direct dependents" 2
    (List.length (Dep_graph.dependents graph t1.Dep_graph.txn));
  check_int "full-rewind scope covers the tail" 4
    (List.length (Dep_graph.successors graph t1.Dep_graph.txn));
  check "unknown txn has an empty closure" true (Dep_graph.closure graph (Txn_id.of_int 99999) = [])

(* --- repair equals the replay-from-scratch oracle; independents untouched --- *)

let test_repair_vs_oracle () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = (history_node graph ~ordinal:1).Dep_graph.txn in
  let stats =
    match
      Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph ~victim
        ~wall_us:(Database.now_us db) ()
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "repair reported conflicts"
  in
  check_int "closure is victim + 2 dependents" 3 stats.Selective.closure_size;
  check_int "two replayed transactions" 2 stats.Selective.replayed_txns;
  check_int "only the two shared leaves rewound" 2 stats.Selective.pages_rewound;
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "repaired state equals replay-minus-victim oracle" true (dump db = dump odb);
  check "independent T4's write survived" true
    (Database.get db ~table:"t" ~key:35L = Some [ Row.Int 35L; Row.Text (value ~round:4 ~key:35) ])

(* --- the multi-seed byte-equality property campaign --- *)

let test_soak_campaign () =
  let rows = Experiments.whatif_soak_campaign ~seeds:[ 11; 23; 47 ] ~quick:true () in
  check_int "three scenarios at three seeds" 9 (List.length rows);
  List.iter
    (fun (r : Experiments.whatif_row) ->
      let label p =
        Printf.sprintf "seed %d, %s: %s" r.Experiments.wr_seed
          (Experiments.whatif_scenario_name r.Experiments.wr_scenario)
          p
      in
      check (label "graph from append-time index") true r.Experiments.wr_from_index;
      check (label "dependent set exactly the constructed one") true r.Experiments.wr_scope_exact;
      check (label "what-if view agrees with oracle") true r.Experiments.wr_view_agrees;
      check (label "repair ran") true r.Experiments.wr_repaired;
      check (label "repaired rows equal oracle") true r.Experiments.wr_state_agrees;
      check (label "canonical pages equal oracle") true r.Experiments.wr_pages_equal;
      check (label "pre-victim as-of survives repair") true r.Experiments.wr_asof_agrees;
      match r.Experiments.wr_scenario with
      | Experiments.Wf_independent ->
          check_int (label "independent victim replays nothing") 0 r.Experiments.wr_replayed
      | Experiments.Wf_chain ->
          check (label "chained victim drags the whole tail") true
            (r.Experiments.wr_replayed = r.Experiments.wr_closure - 1
            && r.Experiments.wr_replayed > 0)
      | Experiments.Wf_mixed -> check (label "mixed replays some") true (r.Experiments.wr_replayed > 0))
    rows

(* --- crash mid-selective-replay: the repair is atomic --- *)

let test_crash_mid_replay () =
  let _eng, db = build_history () in
  let before = dump db in
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = (history_node graph ~ordinal:1).Dep_graph.txn in
  (* Crash after the first page's diff is logged but before the repair
     transaction can commit: the repair must roll back like any other
     in-flight transaction. *)
  let crashed = ref false in
  (try
     ignore
       (Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph ~victim
          ~wall_us:(Database.now_us db)
          ~on_progress:(fun i -> if i = 1 then raise Exit)
          ())
   with Exit -> crashed := true);
  check "crash hook fired on the second page" true !crashed;
  let db2 = Database.crash_and_reopen db in
  check "half-applied repair rolled back" true (dump db2 = before);
  (* The survivor can run the same repair to completion. *)
  let graph2 = Dep_graph.build ~log:(Database.log db2) in
  (match
     Selective.repair ~ctx:(Database.ctx db2) ~log:(Database.log db2) ~graph:graph2 ~victim
       ~wall_us:(Database.now_us db2) ()
   with
  | Ok s -> check_int "retry rewinds both pages" 2 s.Selective.pages_rewound
  | Error _ -> Alcotest.fail "retry reported conflicts");
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "post-crash retry equals the oracle" true (dump db2 = dump odb)

(* --- conflicts refuse, never partially apply --- *)

let test_structural_refused () =
  let _eng, db = build_history () in
  let graph = Dep_graph.build ~log:(Database.log db) in
  (* The base-load transaction formats pages: structural, not removable. *)
  let base =
    List.find (fun n -> n.Dep_graph.structural) (Dep_graph.nodes graph)
  in
  let before = dump db in
  (match
     Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph
       ~victim:base.Dep_graph.txn ~wall_us:(Database.now_us db) ()
   with
  | Ok _ -> Alcotest.fail "expected a structural conflict"
  | Error cs ->
      check "conflict names the transaction" true
        (List.exists (fun c -> Page_id.equal c.Selective.page Page_id.nil) cs));
  check "refused repair changed nothing" true (dump db = before);
  Alcotest.check_raises "unknown victim raises" (Selective.Unknown_txn (Txn_id.of_int 424242))
    (fun () ->
      ignore
        (Selective.repair ~ctx:(Database.ctx db) ~log:(Database.log db) ~graph
           ~victim:(Txn_id.of_int 424242) ~wall_us:(Database.now_us db) ()))

(* --- SQL surface: REWIND TRANSACTION t [AS view] --- *)

let run_ok session sql =
  match Executor.run session sql with
  | r -> r
  | exception Executor.Sql_error m -> Alcotest.fail ("sql error: " ^ m)

let test_sql_rewind () =
  let eng, db = build_history () in
  let session = Executor.create_session eng in
  ignore (run_ok session "USE wf");
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = Txn_id.to_int (history_node graph ~ordinal:1).Dep_graph.txn in
  (* First as a what-if view: the live database is untouched. *)
  let live = dump db in
  (match run_ok session (Printf.sprintf "REWIND TRANSACTION %d AS wv" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected a message");
  check "view creation left the live database alone" true (dump db = live);
  let view = Option.get (Engine.find_database eng "wv") in
  let _oeng, odb = build_history ~skip:[ 1 ] () in
  check "view rows equal the oracle" true (dump view = dump odb);
  (* Then in place. *)
  (match run_ok session (Printf.sprintf "REWIND TRANSACTION %d" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected a message");
  check "in-place rewind equals the oracle" true (dump db = dump odb);
  (* Bad victim ids are SQL errors, not exceptions. *)
  check "unknown victim is a sql error" true
    (match Executor.run session "REWIND TRANSACTION 424242" with
    | exception Executor.Sql_error _ -> true
    | _ -> false)

(* --- another session's open transaction blocks the rewind --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_inflight_conflict () =
  let eng, db = build_history () in
  let s1 = Executor.create_session eng in
  let s2 = Executor.create_session eng in
  ignore (run_ok s1 "USE wf");
  ignore (run_ok s2 "USE wf");
  let graph = Dep_graph.build ~log:(Database.log db) in
  let victim = Txn_id.to_int (history_node graph ~ordinal:1).Dep_graph.txn in
  (* Session 2 opens a transaction and writes key 0's leaf — a page the
     rewind of T1 would unwind — without committing.  The rewind must
     refuse: rewinding would erase the open transaction's row, and
     nothing would ever replay it. *)
  ignore (run_ok s2 "BEGIN");
  check_int "held update applied" 1
    (match run_ok s2 "UPDATE t SET v = 'held' WHERE k = 0" with
    | Executor.Affected n -> n
    | _ -> -1);
  let live = dump db in
  (match Executor.run s1 (Printf.sprintf "REWIND TRANSACTION %d" victim) with
  | exception Executor.Sql_error m ->
      check "conflict names the in-flight transaction" true (contains m "in-flight")
  | _ -> Alcotest.fail "expected an in-flight conflict");
  check "refused rewind changed nothing" true (dump db = live);
  (* Once that transaction commits it is an ordinary committed outsider:
     the planner folds it into the removed set and the rewind goes
     through. *)
  ignore (run_ok s2 "COMMIT");
  (match run_ok s1 (Printf.sprintf "REWIND TRANSACTION %d" victim) with
  | Executor.Message _ -> ()
  | _ -> Alcotest.fail "expected a message");
  check "committed late-comer's write survives the rewind" true
    (Database.get db ~table:"t" ~key:0L = Some [ Row.Int 0L; Row.Text "held" ])

(* --- on-demand closures vs the whole-graph oracle --- *)

module Lsn = Rw_storage.Lsn
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Trace = Rw_obs.Trace

(* A seeded log-level history: [sessions] interleaved sessions each run
   one transaction at a time over [pages] pages (skewed, so pages carry
   chains of writers).  A transaction writes, sometimes rolls part of its
   work back with CLRs, and ends by committing (with or without CLRs
   behind it) or aborting (CLRs for every op, then Abort/End).  Sessions
   persist across [gen_steps] calls, so a transaction can stay open
   across a retention cut; whatever is open at the end stays in
   flight. *)
type gen_txn = {
  g_txn : Txn_id.t;
  mutable g_last : Lsn.t;
  mutable g_ops : (Page_id.t * Log_record.op) list; (* newest first *)
}

type gen = {
  rng : Random.State.t;
  pages : int;
  open_txns : gen_txn option array; (* per session *)
  page_last : (int, Lsn.t) Hashtbl.t;
  mutable next_txn : int;
}

let make_gen ~seed ~sessions ~pages =
  {
    rng = Random.State.make [| seed |];
    pages;
    open_txns = Array.make sessions None;
    page_last = Hashtbl.create 16;
    next_txn = 1;
  }

(* A crash lost the sessions' open work: start over with fresh ones. *)
let gen_crashed g =
  Array.fill g.open_txns 0 (Array.length g.open_txns) None;
  Hashtbl.reset g.page_last

let gen_steps g ~log ~steps =
  let rng = g.rng in
  let append t body =
    let lsn = Log_manager.append log (Log_record.make ~txn:t.g_txn ~prev_txn_lsn:t.g_last body) in
    t.g_last <- lsn;
    lsn
  in
  let on_page t page body =
    let prev = Option.value (Hashtbl.find_opt g.page_last (Page_id.to_int page)) ~default:Lsn.nil in
    Hashtbl.replace g.page_last (Page_id.to_int page) (append t (body prev))
  in
  let rollback t n =
    List.iteri
      (fun i (page, op) ->
        if i < n then
          on_page t page (fun prev ->
              Log_record.Clr { page; prev_page_lsn = prev; op; undo_next = Lsn.nil }))
      t.g_ops;
    t.g_ops <- List.filteri (fun i _ -> i >= n) t.g_ops
  in
  for step = 1 to steps do
    let s = Random.State.int rng (Array.length g.open_txns) in
    match g.open_txns.(s) with
    | None ->
        let t = { g_txn = Txn_id.of_int g.next_txn; g_last = Lsn.nil; g_ops = [] } in
        g.next_txn <- g.next_txn + 1;
        ignore (append t Log_record.Begin);
        g.open_txns.(s) <- Some t
    | Some t ->
        let r = Random.State.int rng 100 in
        if r < 60 then begin
          let page = Page_id.of_int (min (Random.State.int rng g.pages) (Random.State.int rng g.pages)) in
          let op =
            if Random.State.int rng 20 = 0 then
              Log_record.Set_header { field = Log_record.Special; before = 0L; after = 1L }
            else Log_record.Insert_row { slot = 0; row = Printf.sprintf "r%d" step }
          in
          on_page t page (fun prev -> Log_record.Page_op { page; prev_page_lsn = prev; op });
          t.g_ops <- (page, op) :: t.g_ops
        end
        else if r < 68 then rollback t (1 + Random.State.int rng 2)
        else if r < 85 then begin
          ignore (append t (Log_record.Commit { wall_us = float_of_int step }));
          if Random.State.bool rng then ignore (append t Log_record.End);
          g.open_txns.(s) <- None
        end
        else if r < 93 then begin
          rollback t (List.length t.g_ops);
          ignore (append t Log_record.Abort);
          ignore (append t Log_record.End);
          g.open_txns.(s) <- None
        end
  done

(* Independent model of the txn summaries over the retained records: a
   transaction whose first retained record points further back is left
   out (and counted as a straddler); the rest are summarized record by
   record. *)
let model_summaries log =
  let txns : (int, Log_manager.txn_summary option) Hashtbl.t = Hashtbl.create 64 in
  let aborted = Hashtbl.create 16 in
  List.iter
    (fun (lsn, data) ->
      let r = Log_record.decode data in
      let id = Txn_id.to_int r.Log_record.txn in
      let write (s : Log_manager.txn_summary) page op ~clr =
        let structural =
          match op with
          | Log_record.Insert_row _ | Log_record.Delete_row _ | Log_record.Update_row _ -> false
          | _ -> true
        in
        {
          s with
          ts_last_lsn = lsn;
          ts_ops = s.ts_ops + 1;
          ts_has_clr = s.ts_has_clr || clr;
          ts_structural = s.ts_structural || structural;
          ts_writes =
            (if List.mem_assoc page s.ts_writes then s.ts_writes else (page, lsn) :: s.ts_writes);
        }
      in
      let step (s : Log_manager.txn_summary) =
        match r.Log_record.body with
        | Log_record.Commit { wall_us } -> { s with ts_commit_lsn = lsn; ts_commit_wall_us = wall_us }
        | Log_record.Abort ->
            Hashtbl.replace aborted id ();
            s
        | Log_record.Page_op { page; op; _ } -> write s page op ~clr:false
        | Log_record.Clr { page; op; _ } -> write s page op ~clr:true
        | _ -> s
      in
      if not (Txn_id.is_nil r.Log_record.txn) then
        let known =
          match Hashtbl.find_opt txns id with
          | Some known -> known
          | None when not (Lsn.is_nil r.Log_record.prev_txn_lsn) -> None
          | None ->
              Some
                {
                  Log_manager.ts_txn = r.Log_record.txn;
                  ts_first_lsn = lsn;
                  ts_last_lsn = Lsn.nil;
                  ts_commit_lsn = Lsn.nil;
                  ts_commit_wall_us = 0.0;
                  ts_ops = 0;
                  ts_has_clr = false;
                  ts_structural = false;
                  ts_writes = [];
                }
        in
        Hashtbl.replace txns id (Option.map step known))
    (Log_manager.dump_entries log);
  let straddlers = Hashtbl.fold (fun _ s n -> if s = None then n + 1 else n) txns 0 in
  let summaries =
    Hashtbl.fold
      (fun id s acc ->
        match s with
        | Some (s : Log_manager.txn_summary)
          when (not (Lsn.is_nil s.ts_commit_lsn)) && not (Hashtbl.mem aborted id) ->
            { s with ts_writes = List.rev s.ts_writes } :: acc
        | _ -> acc)
      txns []
    |> List.sort (fun (a : Log_manager.txn_summary) b -> Lsn.compare a.ts_commit_lsn b.ts_commit_lsn)
  in
  (summaries, straddlers)

(* Every query of the on-demand view against the whole-graph oracle, for
   every transaction id the history used (committed, aborted, in flight
   and pruned alike), plus the per-page index itself. *)
let check_view ~label ~log ~max_txn =
  let graph = Dep_graph.build ~log in
  let ids = List.init max_txn (fun i -> Txn_id.of_int (i + 1)) in
  let view_ids f = List.map (fun (n : Dep_graph.node) -> Txn_id.to_int n.txn) f in
  (* Answers from the live view first, so a voided index is rebuilt by
     the view's own first query. *)
  let answers =
    List.map
      (fun txn ->
        ( Dep_graph.find graph txn,
          Dep_graph.closure graph txn,
          Dep_graph.dependents graph txn,
          Dep_graph.successors graph txn ))
      ids
  in
  let model, straddlers = model_summaries log in
  check (label ^ ": txn index equals the record-by-record model") true
    (Log_manager.txn_summaries log = model);
  let oracle = Dep_graph_oracle.build ~log in
  check (label ^ ": same nodes") true (Dep_graph.nodes graph = Dep_graph_oracle.nodes oracle);
  check_int (label ^ ": same node count") (Dep_graph_oracle.node_count oracle)
    (Dep_graph.node_count graph);
  check_int (label ^ ": same edge count") (Dep_graph_oracle.edge_count oracle)
    (Dep_graph.edge_count graph);
  let pages =
    List.sort_uniq Page_id.compare
      (Log_manager.written_pages log @ Dep_graph_oracle.written_pages oracle)
  in
  List.iter
    (fun page ->
      check
        (Printf.sprintf "%s: page %d writers" label (Page_id.to_int page))
        true
        (Log_manager.page_writers log page ~above:Lsn.nil = Dep_graph_oracle.page_writers oracle page))
    pages;
  List.iter2
    (fun txn (find, closure, dependents, successors) ->
      let what q = Printf.sprintf "%s: txn %d %s" label (Txn_id.to_int txn) q in
      check (what "find") true (find = Dep_graph_oracle.find oracle txn);
      Alcotest.(check (list int)) (what "closure")
        (view_ids (Dep_graph_oracle.closure oracle txn)) (view_ids closure);
      check (what "closure nodes") true (closure = Dep_graph_oracle.closure oracle txn);
      Alcotest.(check (list int)) (what "dependents")
        (view_ids (Dep_graph_oracle.dependents oracle txn)) (view_ids dependents);
      check (what "successors") true (successors = Dep_graph_oracle.successors oracle txn))
    ids answers;
  (List.length model, List.fold_left (fun m (_, c, _, _) -> max m (List.length c)) 0 answers,
   straddlers)

let fresh_log ?fault_plan () =
  Log_manager.create ~clock:(Rw_storage.Sim_clock.create ()) ~media:Media.ram ?fault_plan ()

(* The LSN of the retained record at [frac] of the way through the log
   (the newest record at 1.0). *)
let mid_lsn log frac =
  let entries = Log_manager.dump_entries log in
  let n = List.length entries in
  fst (List.nth entries (min (n - 1) (int_of_float (frac *. float_of_int n))))

let rec ingest_in_batches log = function
  | [] -> ()
  | entries ->
      ignore (Log_manager.ingest_entries log (List.filteri (fun i _ -> i < 17) entries) : int);
      ingest_in_batches log (List.filteri (fun i _ -> i >= 17) entries)

let test_view_matches_oracle () =
  List.iter
    (fun seed ->
      let label s = Printf.sprintf "seed %d, %s" seed s in
      let check_view ~label ~log g =
        let nodes, widest, straddlers = check_view ~label ~log ~max_txn:g.next_txn in
        check (label ^ ": history has nodes and chains") true (nodes > 10 && widest > 2);
        straddlers
      in
      (* Interleaved sessions, aborts, partial rollbacks, in-flight txns. *)
      let g = make_gen ~seed ~sessions:4 ~pages:12 in
      let log = fresh_log () in
      gen_steps g ~log ~steps:300;
      ignore (check_view ~label:(label "interleaved") ~log g);
      (* Retention truncation at the newest record, then more appends:
         every session open across the boundary keeps writing, and must
         stay out. *)
      Log_manager.truncate_before log (mid_lsn log 1.0);
      gen_steps g ~log ~steps:200;
      check (label "truncation left straddlers") true
        (check_view ~label:(label "truncated") ~log g > 0);
      (* A second cut a few transactions back: transactions that began
         above it and ones open across it now share pages, so pruning
         unlinks entries from the middle and the head of page lists. *)
      gen_steps g ~log ~steps:200;
      Log_manager.truncate_before log (mid_lsn log 0.9);
      gen_steps g ~log ~steps:100;
      ignore (check_view ~label:(label "truncated twice") ~log g);
      (* Save/load: restore the truncated log's dump into a fresh one. *)
      let restored = fresh_log () in
      Log_manager.restore_entries restored (Log_manager.dump_entries log);
      ignore (check_view ~label:(label "restored") ~log:restored g);
      (* Replica ingest of the same records in shipment-sized batches. *)
      let replica = fresh_log () in
      ingest_in_batches replica (Log_manager.dump_entries log);
      ignore (check_view ~label:(label "ingested") ~log:replica g);
      (* Torn tail: a truncated, partly unflushed log crashes; the tear is
         repaired, more history lands while the index is void, and the
         view's first query rebuilds it with one scan. *)
      let g = make_gen ~seed ~sessions:4 ~pages:12 in
      let torn =
        fresh_log ~fault_plan:(Rw_storage.Fault_plan.create ~torn_log_tail_rate:1.0 ~seed ()) ()
      in
      gen_steps g ~log:torn ~steps:300;
      Log_manager.truncate_before torn (mid_lsn torn 0.4);
      Log_manager.flush_all torn;
      gen_steps g ~log:torn ~steps:150;
      Log_manager.crash torn;
      ignore (Log_manager.repair_tail torn);
      gen_crashed g;
      check (label "tail drop voided the index") true (not (Log_manager.txn_index_live torn));
      gen_steps g ~log:torn ~steps:100;
      let rebuilds = Rw_obs.Metrics.counter_value Rw_obs.Probes.whatif_txn_index_rebuilds in
      check (label "the rebuild meets straddlers") true
        (check_view ~label:(label "torn tail") ~log:torn g > 0);
      check_int (label "one priced rebuild scan") (rebuilds + 1)
        (Rw_obs.Metrics.counter_value Rw_obs.Probes.whatif_txn_index_rebuilds);
      (* The rebuilt index keeps up with appends again. *)
      gen_steps g ~log:torn ~steps:100;
      ignore (check_view ~label:(label "after rebuild") ~log:torn g))
    [ 1; 2; 3; 4 ]

(* A closure reads only the index entries above its members' own first
   writes: history before the victim on its pages, and history on other
   pages, cost nothing. *)
let test_closure_cost_is_local () =
  let closure_entries ~unrelated =
    let log = fresh_log () in
    let lsn = ref Lsn.nil in
    let txn id pages =
      let t = Txn_id.of_int id in
      let prev = ref (Log_manager.append log (Log_record.make ~txn:t Log_record.Begin)) in
      List.iter
        (fun p ->
          prev :=
            Log_manager.append log
              (Log_record.make ~txn:t ~prev_txn_lsn:!prev
                 (Log_record.Page_op
                    {
                      page = Page_id.of_int p;
                      prev_page_lsn = Lsn.nil;
                      op = Log_record.Insert_row { slot = 0; row = "x" };
                    })))
        pages;
      lsn := Log_manager.append log (Log_record.make ~txn:t ~prev_txn_lsn:!prev (Log_record.Commit { wall_us = 1.0 }))
    in
    (* [unrelated] older writers of the victim's pages 1 and 2, then the
       victim, its two dependents, and [unrelated] writers of other pages. *)
    for i = 1 to unrelated do
      txn i [ 1; 2; 10 + (i mod 50) ]
    done;
    let victim = unrelated + 1 in
    txn victim [ 1; 2 ];
    txn (victim + 1) [ 1; 3 ];
    txn (victim + 2) [ 3 ];
    for i = 1 to unrelated do
      txn (victim + 2 + i) [ 100 + (i mod 50) ]
    done;
    let graph = Dep_graph.build ~log in
    Trace.clear ();
    Trace.enable ();
    let closure = Dep_graph.closure graph (Txn_id.of_int victim) in
    Trace.disable ();
    let entries =
      List.find_map
        (fun (e : Trace.event) ->
          if e.Trace.name = "whatif.closure" then
            match List.assoc_opt "entries" e.Trace.args with
            | Some (Trace.Int n) -> Some n
            | _ -> None
          else None)
        (Trace.events ())
    in
    Trace.clear ();
    check_int "victim and both dependents" 3 (List.length closure);
    Option.get entries
  in
  let small = closure_entries ~unrelated:10 and large = closure_entries ~unrelated:400 in
  check_int "entries visited do not grow with unrelated history" small large;
  check "entries visited are the dependents' own" true (small <= 3)

let () =
  Alcotest.run "whatif"
    [
      ( "graph",
        [
          Alcotest.test_case "known-history shape" `Quick test_graph_shape;
          Alcotest.test_case "on-demand view matches the whole-graph oracle" `Quick
            test_view_matches_oracle;
          Alcotest.test_case "closure cost ignores unrelated history" `Quick
            test_closure_cost_is_local;
        ] );
      ( "selective",
        [
          Alcotest.test_case "repair vs oracle" `Quick test_repair_vs_oracle;
          Alcotest.test_case "crash mid-replay atomic" `Quick test_crash_mid_replay;
          Alcotest.test_case "conflicts refuse cleanly" `Quick test_structural_refused;
          Alcotest.test_case "in-flight transaction blocks rewind" `Quick test_inflight_conflict;
        ] );
      ("campaign", [ Alcotest.test_case "three seeds, three scenarios" `Slow test_soak_campaign ]);
      ("sql", [ Alcotest.test_case "rewind transaction" `Quick test_sql_rewind ]);
    ]
