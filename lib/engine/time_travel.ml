module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Disk = Rw_storage.Disk
module Media = Rw_storage.Media
module Log_manager = Rw_wal.Log_manager
module Split_lsn = Rw_core.Split_lsn

type route = Rewind | Roll_forward of Backup.t

type plan = { route : route; rewind_estimate_s : float; restore_estimate_s : float }

(* Rough size of one log record in this engine; only used for estimating
   how many modifications a log region holds. *)
let avg_record_bytes = 128.0

let seq_s media bytes =
  Media.transfer_us ~mb_s:media.Media.seq_read_mb_s bytes /. 1_000_000.0

let rand_read_s media = media.Media.rand_read_lat_us /. 1_000_000.0

let estimate_rewind ~db ~split ~pages_hint =
  let media = Disk.media (Database.disk db) in
  let log = Database.log db in
  let span_bytes =
    max 0 (Lsn.to_int (Log_manager.end_lsn log) - Lsn.to_int split.Split_lsn.split_lsn)
  in
  (* Creation: the analysis tail scan from the newest analysis anchor
     past the base checkpoint to the split — at most about one log block,
     whatever the checkpoint interval — plus the checkpoint flush;
     approximate the latter with the current dirty set. *)
  let analysis_bytes =
    let base = split.Split_lsn.base_checkpoint and upto = split.Split_lsn.split_lsn in
    let from =
      match Log_manager.analysis_anchor log ~upto with
      | Some (pos, _) -> Lsn.max pos base
      | None -> Log_manager.first_lsn log
    in
    max 0 (Lsn.to_int upto - Lsn.to_int from)
  in
  let dirty = List.length (Rw_buffer.Buffer_pool.dirty_page_table (Database.pool db)) in
  let creation_s =
    seq_s media analysis_bytes
    +. (float_of_int dirty *. media.Media.rand_write_lat_us /. 1_000_000.0)
  in
  (* Query: each touched page replays its share of the modifications in
     the travelled span, each a potential random log read. *)
  let hot_pages = max 1 (Disk.written_pages (Database.disk db)) in
  let mods_in_span = float_of_int span_bytes /. avg_record_bytes in
  let undo_ios = float_of_int pages_hint *. mods_in_span /. float_of_int hot_pages in
  let query_s =
    (undo_ios *. rand_read_s media)
    +. (float_of_int pages_hint *. rand_read_s media (* page fetch + sparse write *))
  in
  creation_s +. query_s

let estimate_restore ~db ~split backup =
  let media = Disk.media (Database.disk db) in
  let log = Database.log db in
  let size = float_of_int (Backup.size_bytes backup) in
  let copy_s =
    (size /. media.Media.seq_read_mb_s /. 1_000_000.0)
    +. (size /. media.Media.seq_write_mb_s /. 1_000_000.0)
  in
  (* The restore processes the whole retained log tail: replay up to the
     split, initialization beyond it. *)
  let log_bytes =
    max 0 (Lsn.to_int (Log_manager.end_lsn log) - Lsn.to_int (Backup.taken_at_lsn backup))
  in
  ignore split;
  copy_s +. seq_s media log_bytes

let plan ~db ~backups ~wall_us ~pages_hint =
  let split = Split_lsn.find ~log:(Database.log db) ~wall_us in
  let rewind_estimate_s = estimate_rewind ~db ~split ~pages_hint in
  let usable = List.filter (fun b -> Backup.wall_us b <= wall_us) backups in
  (* The most recent usable backup minimises the replay span. *)
  let best =
    List.fold_left
      (fun acc b ->
        match acc with
        | Some best when Backup.wall_us best >= Backup.wall_us b -> acc
        | _ -> Some b)
      None usable
  in
  match best with
  | None -> { route = Rewind; rewind_estimate_s; restore_estimate_s = infinity }
  | Some backup ->
      let restore_estimate_s = estimate_restore ~db ~split backup in
      let route = if rewind_estimate_s <= restore_estimate_s then Rewind else Roll_forward backup in
      { route; rewind_estimate_s; restore_estimate_s }

let warm view =
  match Database.snapshot_handle view with
  | None -> 0
  | Some snap ->
      let log = Database.log view in
      let split = Rw_core.As_of_snapshot.split_lsn snap in
      (* Only pages with chain records after the split need rewinding; the
         rest are served from their primary images as-is. *)
      let pages = Log_manager.pages_changed_since log ~since:split in
      Rw_core.As_of_snapshot.materialize_batch snap pages

let materialise ?(prewarm = false) ~db ~name ~wall_us plan =
  let view =
    match plan.route with
    | Rewind -> Database.create_as_of_snapshot db ~name ~wall_us
    | Roll_forward backup -> Backup.restore_as_of backup ~from:db ~wall_us
  in
  if prewarm then ignore (warm view);
  view

let pp_plan fmt t =
  Format.fprintf fmt "route=%s rewind~%.3fs restore~%.3fs"
    (match t.route with Rewind -> "rewind" | Roll_forward _ -> "roll-forward")
    t.rewind_estimate_s t.restore_estimate_s
