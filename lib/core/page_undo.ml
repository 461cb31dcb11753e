module Lsn = Rw_storage.Lsn
module Page = Rw_storage.Page
module Page_id = Rw_storage.Page_id
module Log_record = Rw_wal.Log_record
module Log_manager = Rw_wal.Log_manager
module Obs = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace

exception Chain_broken of { page : Page_id.t; lsn : Lsn.t }

type result = { ops_undone : int; log_records_read : int; used_fpi : bool }

(* One completed rewind, whichever fetch produced it. *)
let note pid (r : result) =
  Obs.incr Probes.page_rewinds;
  Obs.add Probes.ops_undone r.ops_undone;
  Obs.observe Probes.chain_length (float_of_int r.log_records_read);
  if Trace.on () then
    Trace.instant ~cat:"undo"
      ~args:
        [
          ("page", Trace.Int (Page_id.to_int pid));
          ("ops", Trace.Int r.ops_undone);
          ("log_reads", Trace.Int r.log_records_read);
          ("fpi", Trace.Int (if r.used_fpi then 1 else 0));
        ]
      "undo.prepare_page";
  r

(* A failing LSN below the retention boundary means the chain left the
   log; anywhere else the chain itself is wrong. *)
let chain_error ~log pid lsn =
  if Lsn.(lsn < Log_manager.first_lsn log) then Log_manager.Log_truncated lsn
  else Chain_broken { page = pid; lsn }

(* What a rewind must fetch, from index lookups alone (no I/O, no
   decode).  Jump-start: the earliest full page image logged after the
   target, if one exists below the page's current position; the image
   was captured at the FPI record's [prev_page_lsn], so the chain is
   taken from there down to [as_of] and the log region above the image
   is never visited. *)
type plan = {
  fpi : Lsn.t option;
  start : Lsn.t;  (* chain top: the image's capture point, else the page LSN *)
  segment : Lsn.t array;  (* ascending chain LSNs in (as_of, start] *)
}

let plan ~log ~page ~as_of =
  let pid = Page.id page in
  let top = Page.lsn page in
  let fpi =
    match Log_manager.earliest_fpi_after log pid ~after:as_of with
    | Some f when Lsn.(f < top) -> Some f
    | _ -> None
  in
  let start =
    match fpi with
    | Some f -> (Log_manager.peek_record log f).Log_record.p_prev_page_lsn
    | None -> top
  in
  let segment =
    if Lsn.(start <= as_of) then [||]
    else Log_manager.chain_segment log pid ~from:start ~down_to:as_of
  in
  { fpi; start; segment }

(* Check the fetched records against the plan, then undo them.  Every
   check runs before the first mutation: [Error lsn] names the first
   failing LSN and leaves [page] untouched. *)
let apply ~page ~as_of p ~fpi ~records =
  let pid = Page.id page in
  let seg = p.segment in
  let n = Array.length records in
  (* Each record belongs to this page and points at the previous segment
     element; the oldest points at or below [as_of]. *)
  let rec links i =
    if i = n then None
    else
      match records.(i).Log_record.body with
      | Log_record.Page_op { page = rpid; prev_page_lsn = prev; _ }
      | Log_record.Clr { page = rpid; prev_page_lsn = prev; _ }
        when Page_id.equal rpid pid ->
          if (if i = 0 then Lsn.(prev <= as_of) else Lsn.equal prev seg.(i - 1)) then
            links (i + 1)
          else Some prev
      | _ -> Some seg.(i)
  in
  (* The image must embed the capture point the segment was taken from. *)
  let image =
    match p.fpi with
    | None -> Ok None
    | Some f -> (
        match Option.bind fpi Log_record.op_of with
        | Some (Log_record.Full_image { image })
          when Lsn.equal (Page.lsn (Bytes.unsafe_of_string image)) p.start ->
            Ok (Some image)
        | _ -> Error f)
  in
  match image with
  | Error f -> Error f
  | Ok _ when Lsn.(p.start > as_of) && (n = 0 || not (Lsn.equal seg.(n - 1) p.start)) ->
      Error p.start
  | Ok image -> (
      match links 0 with
      | Some bad -> Error bad
      | None ->
          Option.iter (fun img -> Bytes.blit_string img 0 page 0 Page.page_size) image;
          (* Newest record first, as the walk applies them. *)
          for i = n - 1 downto 0 do
            match records.(i).Log_record.body with
            | Log_record.Page_op { op; _ } | Log_record.Clr { op; _ } -> Log_record.undo op page
            | _ -> assert false
          done;
          (* The intermediate page LSNs the walk would stamp are all
             overwritten by the next undo's stamp; only the final one —
             the oldest record's back pointer — is observable. *)
          (if n > 0 then
             match records.(0).Log_record.body with
             | Log_record.Page_op { prev_page_lsn; _ } | Log_record.Clr { prev_page_lsn; _ } ->
                 Page.set_lsn page prev_page_lsn
             | _ -> assert false);
          let used_fpi = Option.is_some image in
          Ok { ops_undone = n; log_records_read = (n + if used_fpi then 1 else 0); used_fpi })

let prepare_page_as_of ~log ~page ~as_of =
  let pid = Page.id page in
  let p = plan ~log ~page ~as_of in
  let outcome =
    match
      let fpi = Option.map (Log_manager.read log) p.fpi in
      (fpi, Log_manager.read_segment log p.segment)
    with
    | fpi, records -> apply ~page ~as_of p ~fpi ~records
    | exception (Log_manager.No_such_record lsn | Log_manager.Log_truncated lsn) -> Error lsn
  in
  match outcome with Ok r -> note pid r | Error lsn -> raise (chain_error ~log pid lsn)

(* ---------- staged rewind: gather / apply / publish ---------- *)

(* The batch pipeline splits a rewind into a coordinator-side gather
   (all priced I/O, all shared caches), a pure worker-side apply, and a
   coordinator-side publish.  The gathered bytes are immutable, so they
   can cross domains. *)
type raw_plan = {
  rp_plan : plan;
  rp_fetched : (string option * string array, Lsn.t) Stdlib.result;
      (* encoded FPI and segment records, or the LSN the fetch failed at *)
}

let plan_raw ~log ~page ~as_of =
  let p = plan ~log ~page ~as_of in
  let all = match p.fpi with Some f -> Array.append p.segment [| f |] | None -> p.segment in
  Log_manager.prefetch log (Array.to_list all);
  let rp_fetched =
    match Log_manager.read_segment_raw log all with
    | raw -> (
        let n = Array.length p.segment in
        match p.fpi with None -> Ok (None, raw) | Some _ -> Ok (Some raw.(n), Array.sub raw 0 n))
    | exception (Log_manager.No_such_record lsn | Log_manager.Log_truncated lsn) -> Error lsn
  in
  { rp_plan = p; rp_fetched }

let apply_raw ~page ~as_of { rp_plan = p; rp_fetched } =
  Result.bind rp_fetched (fun (raw_fpi, raw) ->
      let fpi = Option.map Log_record.decode raw_fpi in
      let records = Array.map Log_record.decode raw in
      Result.map
        (fun r ->
          let feeds = Array.mapi (fun i record -> (p.segment.(i), record)) records in
          match (p.fpi, fpi) with
          | Some f, Some record -> (r, Array.append feeds [| (f, record) |])
          | _ -> (r, feeds))
        (apply ~page ~as_of p ~fpi ~records))
