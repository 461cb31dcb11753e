(** The analysis state restricted to live transactions.

    For every transaction that is in flight at some log position: the LSN
    of its newest record and the pages it touched within the analysed
    region.  This is the part of ARIES analysis that as-of snapshot
    creation needs (the loser set and its pages); the dirty-page table and
    the redo start are restart-only and stay in [Rw_recovery.Recovery].

    Analysis folds {!step}, the one per-record transition, over a mutable
    accumulator ({!acc}).  A {!t} is an immutable copy of an accumulator
    — what the log manager keeps at every log-block boundary as an
    {e analysis anchor} ({!Log_manager.analysis_anchor}); consecutive
    copies share their page sets.  Restart analysis and the anchors use
    the same {!step}. *)

type t
(** An immutable state. *)

type acc
(** A running, mutable state. *)

val empty : t
val cardinal : t -> int
(** Live transactions. *)

val thaw : t -> acc
(** A fresh accumulator starting from the state. *)

val freeze : acc -> t
(** The accumulator's current state; O(live transactions). *)

val take_added : acc -> int
(** Page entries added to the live transactions' page sets since the
    accumulator was made or this was last called; resets the count.  A
    frozen state shares its page sets with the previous one except for
    these additions, which is what the log manager charges per anchor. *)

val seed : acc -> (Txn_id.t * Rw_storage.Lsn.t) list -> unit
(** Merge a checkpoint's active-transaction table: each listed transaction
    not already live enters with the listed last LSN and no pages. *)

val restart : acc -> (Txn_id.t * Rw_storage.Lsn.t) list -> unit
(** Reset to exactly a checkpoint's active-transaction table, no pages;
    also resets the {!take_added} count. *)

val step : acc -> Rw_storage.Lsn.t -> Log_record.peek -> unit
(** Apply one record's header.  [Begin] makes the transaction live;
    [Commit] and [End] retire it; [Abort] moves a live transaction's last
    LSN; a page operation or CLR of a non-nil transaction moves its last
    LSN and adds the page.  Checkpoint records leave the state unchanged:
    callers decide whether a checkpoint merges ({!seed}) or restarts the
    state ({!restart}). *)

val losers : acc -> (Txn_id.t, Rw_storage.Lsn.t) Hashtbl.t
(** Fresh table: live transaction -> LSN of its newest record. *)

val pages : acc -> (Txn_id.t, (int, unit) Hashtbl.t) Hashtbl.t
(** Fresh table: live transaction -> pages it touched (page ids as ints). *)

val loser_pages : acc -> Rw_storage.Page_id.t list
(** Distinct pages touched by any live transaction, ascending. *)
