(** Wall-clock time to SplitLSN translation (paper §5.1).

    The search first narrows the log region using checkpoint records (which
    carry wall-clock time) and then uses commit records to find the exact
    boundary: the SplitLSN is the position just after the last transaction
    that committed at or before the requested time, so the snapshot contains
    exactly the transactions a user would consider committed at that
    moment.  Both steps are served from the log manager's timestamp
    directory ({!Rw_wal.Log_manager.checkpoint_at_or_before},
    {!Rw_wal.Log_manager.commits_through}): no log record is read. *)

exception Out_of_retention of float
(** The requested time precedes the retained log. *)

type result = {
  split_lsn : Rw_storage.Lsn.t;
  base_checkpoint : Rw_storage.Lsn.t;
      (** newest retained checkpoint whose wall time is at or before the
          requested time — where snapshot recovery's analysis starts
          ([Lsn.nil] if starting from the log head).  No checkpoint lies
          between it and the split. *)
  commits_seen : int;
}

val find : log:Rw_wal.Log_manager.t -> wall_us:float -> result
