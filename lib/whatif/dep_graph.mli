(** Transaction dependency view over the committed history.

    One node per committed, non-aborted transaction retained in the log;
    a directed edge links consecutive distinct writers of each page, in
    first-write LSN order (earlier writer -> later writer).  The
    transitive closure of a node therefore contains every committed
    transaction whose reads-from/overwrites chain can reach back to it
    at page granularity — the set that must be replayed when the node is
    surgically removed ({!Selective}).

    The graph is never materialized: a handle answers each query on
    demand from the log's append-time indexes (the per-transaction
    summaries and the per-page first-writer index, see
    {!Rw_wal.Log_manager.page_writers}), so a query costs what the
    transactions it reaches wrote, not the length of the history.
    Queries see the log as it is when they run.

    Page granularity is deliberately conservative: transactions that
    touched disjoint rows of one page, and predicate reads whose phantom
    range spans a written page, both become edges.  False edges only
    enlarge the replay set; they never cause a missed dependency.  See
    docs/WHATIF.md for the construction rules and exactness caveats. *)

type node = {
  txn : Rw_wal.Txn_id.t;
  commit_lsn : Rw_storage.Lsn.t;
  commit_wall_us : float;
  first_lsn : Rw_storage.Lsn.t;
  last_op_lsn : Rw_storage.Lsn.t;
  ops : int;  (** page operations logged, CLRs included *)
  structural : bool;
      (** logged a structural op (format/preformat/header/FPI) — not
          replayable by the key-aware engine, so not removable and a
          conflict when inside a replay closure *)
  has_clr : bool;  (** wrote compensation records (partial rollback) *)
  writes : (Rw_storage.Page_id.t * Rw_storage.Lsn.t) list;
      (** (page, LSN of first write to it), ascending by LSN *)
}

type t

val build : log:Rw_wal.Log_manager.t -> t
(** A dependency view over [log]'s retained history: O(1).  If a
    tail-dropping event voided the log's indexes, the first query
    rebuilds them with one priced scan ({!built_from_index} reports
    whether the index was live when the view was taken). *)

val built_from_index : t -> bool
(** [true] when the append-time index was live at {!build}, [false] when
    a rebuild scan was due. *)

val node_count : t -> int
(** Committed, non-aborted transactions retained: O(transactions). *)

val edge_count : t -> int
(** Distinct edges, counted in one pass over the per-page index. *)

val nodes : t -> node list
(** All nodes, ascending by commit LSN (serialization order):
    O(transactions). *)

val find : t -> Rw_wal.Txn_id.t -> node option
(** One lookup in the transaction index. *)

val dependents : t -> Rw_wal.Txn_id.t -> node list
(** Direct successors only — the next committed writer of each page the
    transaction wrote — ascending by commit LSN. *)

val closure : t -> Rw_wal.Txn_id.t -> node list
(** The transaction plus its transitive dependents, ascending by commit
    LSN.  Empty if the transaction is not a node.  A worklist: for each
    member and each page it wrote, every committed writer whose first
    write there is later joins; the cost is the index entries above the
    members' own first writes.  Counted by [whatif.closures] /
    [whatif.closure_txns]; traced as the [whatif.closure] span. *)

val successors : t -> Rw_wal.Txn_id.t -> node list
(** The transaction plus {e every} transaction that committed after it,
    ascending by commit LSN — the scope of a full-database rewind, used
    as the baseline {!Selective} compares against.  O(transactions). *)
