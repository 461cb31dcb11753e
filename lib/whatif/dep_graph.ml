(* Transaction dependency view over the committed history.

   Nodes are the committed, non-aborted transactions retained in the
   log; the dependency rule is page-granular: on each page, consecutive
   distinct writers (in first-write LSN order) are linked earlier ->
   later.  Because our write sets are page-granular — the finest unit
   the physiological log records without payload interpretation — a
   reader that only {e read} a page some earlier transaction wrote is
   already covered: any write it performed lands on some page and is
   ordered there.  The cost is conservatism: two transactions that
   touched disjoint rows of the same page are declared dependent.
   (docs/WHATIF.md discusses the exactness caveats, including
   phantom/predicate reads, which page-granularity likewise
   over-approximates safely.)

   No graph is materialized.  A handle answers each query from the log's
   append-time indexes: [find] from the per-transaction summaries,
   [closure] and [dependents] from the per-page first-writer index
   ({!Log_manager.page_writers}).  Because the graph links consecutive
   writers of each page, the set reachable from a transaction is exactly
   the least set that contains it and every later writer of every page a
   member wrote — a worklist over the members' own pages, which never
   touches unrelated history. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Txn_id = Rw_wal.Txn_id
module Log_manager = Rw_wal.Log_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

type node = {
  txn : Txn_id.t;
  commit_lsn : Lsn.t;
  commit_wall_us : float;
  first_lsn : Lsn.t;
  last_op_lsn : Lsn.t;
  ops : int;
  structural : bool;
  has_clr : bool;
  writes : (Page_id.t * Lsn.t) list;
}

type t = { log : Log_manager.t; from_index : bool }

let node_of_summary (s : Log_manager.txn_summary) =
  {
    txn = s.ts_txn;
    commit_lsn = s.ts_commit_lsn;
    commit_wall_us = s.ts_commit_wall_us;
    first_lsn = s.ts_first_lsn;
    last_op_lsn = s.ts_last_lsn;
    ops = s.ts_ops;
    structural = s.ts_structural;
    has_clr = s.ts_has_clr;
    writes = s.ts_writes;
  }

let build ~log = { log; from_index = Log_manager.txn_index_live log }
let built_from_index t = t.from_index
let nodes t = List.map node_of_summary (Log_manager.txn_summaries t.log)
let node_count t = List.length (Log_manager.txn_summaries t.log)
let find t txn = Option.map node_of_summary (Log_manager.txn_summary t.log txn)
let by_commit nodes = List.sort (fun a b -> Lsn.compare a.commit_lsn b.commit_lsn) nodes

(* One pass over the per-page index: consecutive committed writers of a
   page are an edge; a pair linked on several pages counts once. *)
let edge_count t =
  let seen = Hashtbl.create 256 in
  List.iter
    (fun page ->
      let rec link = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            Hashtbl.replace seen (Txn_id.to_int a, Txn_id.to_int b) ();
            link rest
        | [ _ ] | [] -> ()
      in
      link (Log_manager.page_writers t.log page ~above:Lsn.nil))
    (Log_manager.written_pages t.log);
  Hashtbl.length seen

let dependents t txn =
  match find t txn with
  | None -> []
  | Some n ->
      List.filter_map
        (fun (page, lsn) ->
          match Log_manager.page_writers t.log page ~above:lsn with
          | (_, next) :: _ -> Some (Txn_id.to_int next)
          | [] -> None)
        n.writes
      |> List.sort_uniq Int.compare
      |> List.filter_map (fun id -> find t (Txn_id.of_int id))
      |> by_commit

let closure t txn =
  match find t txn with
  | None -> []
  | Some root ->
      let ts = if Trace.on () then Trace.now () else 0.0 in
      let members = Hashtbl.create 16 in
      Hashtbl.replace members (Txn_id.to_int txn) root;
      (* Per page, the lowest first-write LSN scanned from: every writer
         above it is already a member, so a later member's write there
         adds nothing. *)
      let scanned = Hashtbl.create 16 in
      let entries = ref 0 in
      let rec work = function
        | [] -> ()
        | (n : node) :: rest ->
            let found =
              List.fold_left
                (fun found (page, lsn) ->
                  let key = Page_id.to_int page in
                  match Hashtbl.find_opt scanned key with
                  | Some low when Lsn.(low <= lsn) -> found
                  | _ ->
                      Hashtbl.replace scanned key lsn;
                      List.fold_left
                        (fun found (_, w) ->
                          incr entries;
                          let id = Txn_id.to_int w in
                          if Hashtbl.mem members id then found
                          else
                            match find t w with
                            | Some m ->
                                Hashtbl.replace members id m;
                                m :: found
                            | None -> found)
                        found
                        (Log_manager.page_writers t.log page ~above:lsn))
                rest n.writes
            in
            work found
      in
      work [ root ];
      let result = by_commit (Hashtbl.fold (fun _ n acc -> n :: acc) members []) in
      let size = List.length result in
      Obs.incr Probes.whatif_closures;
      Obs.add Probes.whatif_closure_txns size;
      if Trace.on () then
        Trace.complete ~cat:"whatif" ~ts
          ~args:
            [
              ("txn", Trace.Int (Txn_id.to_int txn));
              ("txns", Trace.Int size);
              ("pages", Trace.Int (Hashtbl.length scanned));
              ("entries", Trace.Int !entries);
            ]
          "whatif.closure";
      result

let successors t txn =
  match find t txn with
  | None -> []
  | Some root -> List.filter (fun n -> Lsn.(n.commit_lsn >= root.commit_lsn)) (nodes t)
