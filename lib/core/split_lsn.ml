module Lsn = Rw_storage.Lsn
module Log_manager = Rw_wal.Log_manager

exception Out_of_retention of float

type result = { split_lsn : Lsn.t; base_checkpoint : Lsn.t; commits_seen : int }

(* The scan this replaces walked forward from the base checkpoint, counting
   commits at or before [wall_us] and stopping at the first commit or
   checkpoint after it.  Every checkpoint past the base is after [wall_us]
   (the base is the newest one at or before it), so the walk ends at the
   first commit past [wall_us] or the next checkpoint, whichever is first —
   three directory lookups, no record read. *)
let find ~log ~wall_us =
  let base = Log_manager.checkpoint_at_or_before log ~wall_us in
  let scan_from =
    match base with
    | Some lsn -> lsn
    | None ->
        (* No checkpoint old enough.  If the log still reaches back to the
           database's creation we can start from its head; otherwise the
           requested time is outside the retention window. *)
        let first = Log_manager.first_lsn log in
        if Lsn.to_int first > 1 then raise (Out_of_retention wall_us) else first
  in
  let stop =
    let after = match base with Some lsn -> lsn | None -> Lsn.of_int (Lsn.to_int scan_from - 1) in
    match Log_manager.checkpoint_after log after with
    | Some lsn -> lsn
    | None -> Log_manager.end_lsn log
  in
  let commits, last = Log_manager.commits_through log ~from:scan_from ~stop ~wall_us in
  {
    (* The snapshot must contain the last commit passed: split just after. *)
    split_lsn =
      (match last with Some lsn -> Log_manager.next_lsn_after log lsn | None -> scan_from);
    base_checkpoint = Option.value base ~default:Lsn.nil;
    commits_seen = commits;
  }
