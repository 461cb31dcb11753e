(* Scan-based reference implementations of the as-of creation path.

   [split_find] is the SplitLSN search as a log scan: read checkpoint
   records newest-first until one is at or before the requested time, then
   walk forward counting commits until the first commit or checkpoint past
   it.  [in_flight] is snapshot analysis as a full [Recovery.analyze] from
   the base checkpoint (or the log head) to the split.  The engine serves
   both from the log manager's timestamp directory and analysis anchors;
   these scans are what those indexes must agree with. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Txn_id = Rw_wal.Txn_id
module Recovery = Rw_recovery.Recovery
module Split_lsn = Rw_core.Split_lsn

let checkpoint_wall log lsn =
  match (Log_manager.read_nocost log lsn).Log_record.body with
  | Log_record.Checkpoint { wall_us; _ } -> wall_us
  | _ -> invalid_arg "Scan_oracle: not a checkpoint"

let split_find ~log ~wall_us =
  let start =
    List.find_opt
      (fun lsn -> checkpoint_wall log lsn <= wall_us)
      (Log_manager.checkpoints_before log (Log_manager.end_lsn log))
  in
  let scan_from =
    match start with
    | Some lsn -> lsn
    | None ->
        if Lsn.to_int (Log_manager.first_lsn log) > 1 then
          raise (Split_lsn.Out_of_retention wall_us)
        else Log_manager.first_lsn log
  in
  let commits = ref 0 and split = ref scan_from in
  (try
     Log_manager.iter_range log ~from:scan_from ~upto:(Log_manager.end_lsn log) (fun lsn r ->
         match r.Log_record.body with
         | Log_record.Commit { wall_us = w } ->
             if w <= wall_us then begin
               incr commits;
               split := Log_manager.next_lsn_after log lsn
             end
             else raise Exit
         | Log_record.Checkpoint { wall_us = w; _ } -> if w > wall_us then raise Exit
         | _ -> ())
   with Exit -> ());
  {
    Split_lsn.split_lsn = !split;
    base_checkpoint = Option.value start ~default:Lsn.nil;
    commits_seen = !commits;
  }

(* Losers (ascending by transaction) and their pages (ascending). *)
let in_flight ~log ~base ~split =
  let start = if Lsn.is_nil base then Log_manager.first_lsn log else base in
  let a = Recovery.analyze ~log ~start ~upto:split in
  let losers =
    Hashtbl.fold (fun txn lsn acc -> (Txn_id.to_int txn, Lsn.to_int lsn) :: acc) a.Recovery.losers []
  in
  let pages = Hashtbl.create 64 in
  Hashtbl.iter
    (fun txn _ ->
      match Hashtbl.find_opt a.Recovery.txn_pages txn with
      | Some ps -> Hashtbl.iter (fun p () -> Hashtbl.replace pages p ()) ps
      | None -> ())
    a.Recovery.losers;
  (List.sort compare losers, List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) pages []))
