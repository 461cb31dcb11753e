(* Pointer-walk reference implementation of PreparePageAsOf.

   [prepare_page_as_of_walk] rewinds a page exactly as the paper describes:
   jump-start from the earliest full page image after the target, then
   read the record at the page LSN, undo it, follow its [prev_page_lsn],
   one record at a time.  The engine's [Page_undo.prepare_page_as_of]
   serves the same chain from the log manager's chain index and fetches it
   in one ascending batch; this walk is what it must agree with — same
   page bytes, same counters, same priced log I/O.

   Unlike the engine, the walk mutates as it goes: a chain that leaves the
   retention window raises [Log_truncated] with the page partly rewound. *)

module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Page_undo = Rw_core.Page_undo

let read_chain_record log pid lsn =
  match Log_manager.read log lsn with
  | r -> r
  | exception Log_manager.No_such_record _ ->
      raise (Page_undo.Chain_broken { page = pid; lsn })

(* Jump-start: restore the earliest full page image logged after the
   target point, if one exists below the page's current position; the
   image embeds the page LSN it was taken at, so the walk resumes from
   there and the log region above the image is never visited. *)
let try_fpi_jump ~log ~page ~as_of ~reads =
  let pid = Page.id page in
  match Log_manager.earliest_fpi_after log pid ~after:as_of with
  | Some fpi_lsn when Lsn.(fpi_lsn < Page.lsn page) -> (
      incr reads;
      let r = read_chain_record log pid fpi_lsn in
      match Log_record.op_of r with
      | Some (Log_record.Full_image { image }) ->
          Bytes.blit_string image 0 page 0 Page.page_size;
          true
      | _ -> raise (Page_undo.Chain_broken { page = pid; lsn = fpi_lsn }))
  | _ -> false

let prepare_page_as_of_walk ~log ~page ~as_of =
  let pid = Page.id page in
  let reads = ref 0 in
  let used_fpi = try_fpi_jump ~log ~page ~as_of ~reads in
  let undone = ref 0 in
  let rec walk () =
    let curr = Page.lsn page in
    if Lsn.(curr > as_of) then begin
      incr reads;
      let r = read_chain_record log pid curr in
      match r.Log_record.body with
      | Log_record.Page_op { page = rpid; prev_page_lsn; op }
      | Log_record.Clr { page = rpid; prev_page_lsn; op; _ } ->
          if not (Page_id.equal rpid pid) then
            raise (Page_undo.Chain_broken { page = pid; lsn = curr });
          Log_record.undo op page;
          incr undone;
          Page.set_lsn page prev_page_lsn;
          walk ()
      | _ -> raise (Page_undo.Chain_broken { page = pid; lsn = curr })
    end
  in
  walk ();
  Page_undo.note pid
    { Page_undo.ops_undone = !undone; log_records_read = !reads; used_fpi }
