(** [PreparePageAsOf] — the paper's core primitive (§4).

    Rewinds a single page from its current content to its state as of an
    arbitrary LSN by undoing the page's backward chain of log records
    ([prevPageLSN]) newest first.  Pages are rewound independently of one
    another, which is exactly what makes the cost of an as-of query
    proportional to the data it touches rather than to the size of the
    database.

    There is one algorithm, plan → validate → apply:
    - {e plan} uses index lookups only.  When the log holds full-page-image
      records for the page (emitted every Nth modification, §6.1), the
      rewind jump-starts from the earliest image after the target LSN and
      skips the log region above it; the chain segment from the image's
      capture point (else the page LSN) down to the target comes from the
      log manager's per-page chain index.
    - {e validate} checks the fetched records before the page is touched:
      the image's kind and embedded LSN, that the segment reaches the
      chain top, that every record belongs to the page and links to the
      previous one, and that the oldest links at or below the target.
    - {e apply} undoes the records newest first.

    The serial entry point and the staged batch differ only in how they
    fetch the records.

    Exception contract: a rewind either succeeds or raises with the page
    bytes untouched.  The failing LSN maps to
    {!Rw_wal.Log_manager.Log_truncated} when it lies below the retention
    boundary and to {!Chain_broken} otherwise. *)

exception Chain_broken of { page : Rw_storage.Page_id.t; lsn : Rw_storage.Lsn.t }
(** The page chain is corrupt at [lsn]: a record there does not belong to
    the page, or a backward link disagrees with the chain index. *)

type result = {
  ops_undone : int;  (** individual modifications undone *)
  log_records_read : int;  (** total log records fetched, FPI included *)
  used_fpi : bool;
}

val prepare_page_as_of :
  log:Rw_wal.Log_manager.t -> page:Rw_storage.Page.t -> as_of:Rw_storage.Lsn.t -> result
(** Rewind [page] in place so it reflects only log records with
    LSN <= [as_of].  A page whose LSN is already at or below [as_of] is
    untouched.  The records are fetched through the decoded-record cache
    (the image with {!Rw_wal.Log_manager.read}, the segment in ascending
    LSN order with {!Rw_wal.Log_manager.read_segment}).  Raises
    {!Rw_wal.Log_manager.Log_truncated} when the chain leaves the
    retention window and {!Chain_broken} on corruption; in both cases
    [page] is unchanged. *)

val chain_error : log:Rw_wal.Log_manager.t -> Rw_storage.Page_id.t -> Rw_storage.Lsn.t -> exn
(** The exception for a rewind of the page that failed at the given LSN:
    {!Rw_wal.Log_manager.Log_truncated} below the log's first retained
    LSN, {!Chain_broken} otherwise. *)

(** {2 Staged rewind (gather / apply / publish)}

    The parallel batch pipeline splits {!prepare_page_as_of} into a
    coordinator-side {!plan_raw} (every priced log read, every shared
    cache), a pure domain-safe {!apply_raw} running the same validation
    and undo, and a coordinator-side publish that calls {!note} and
    re-seeds the decoded-record cache with the returned decodes — or
    raises {!chain_error} for a rejected page. *)

type raw_plan
(** Everything one page's apply needs, as immutable raw bytes — safe to
    hand to a worker domain. *)

val plan_raw :
  log:Rw_wal.Log_manager.t -> page:Rw_storage.Page.t -> as_of:Rw_storage.Lsn.t -> raw_plan
(** Gather the page's undo chain as encoded bytes: the same plan as
    {!prepare_page_as_of}, prefetched and fetched through the block cache
    — but never touching the decoded-record cache (see
    {!Rw_wal.Log_manager.read_segment_raw}).  A failed fetch is recorded
    in the plan, not raised. *)

val apply_raw :
  page:Rw_storage.Page.t ->
  as_of:Rw_storage.Lsn.t ->
  raw_plan ->
  (result * (Rw_storage.Lsn.t * Rw_wal.Log_record.t) array, Rw_storage.Lsn.t) Stdlib.result
(** Decode, validate and apply the plan against [page], in place.  Pure
    CPU over private state — no I/O, no caches, no probes — so it may
    run on any domain.  [Error lsn] names the failing LSN (for
    {!chain_error}) and leaves [page] untouched.  On success, returns the
    rewind {!result} plus every record decoded, for the publish stage to
    feed back into the decoded-record cache. *)

val note : Rw_storage.Page_id.t -> result -> result
(** Publish-stage accounting for a rewind performed via
    {!apply_raw}: bumps the [undo.*] probes and emits the trace instant
    exactly as {!prepare_page_as_of} does internally.  Returns its
    argument. *)
