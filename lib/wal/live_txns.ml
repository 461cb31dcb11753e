module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Txn_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type frozen = { f_last : Lsn.t; f_pages : Int_set.t }
type t = frozen Txn_map.t
type entry = { mutable last : Lsn.t; mutable pages : Int_set.t }
type acc = { live : (int, entry) Hashtbl.t; mutable added : int }

let empty = Txn_map.empty
let cardinal = Txn_map.cardinal

let thaw t =
  let live = Hashtbl.create 16 in
  Txn_map.iter (fun k f -> Hashtbl.replace live k { last = f.f_last; pages = f.f_pages }) t;
  { live; added = 0 }

let freeze acc =
  Hashtbl.fold
    (fun k e m -> Txn_map.add k { f_last = e.last; f_pages = e.pages } m)
    acc.live Txn_map.empty

let take_added acc =
  let n = acc.added in
  acc.added <- 0;
  n

let seed acc active =
  List.iter
    (fun (txn, last) ->
      let k = Txn_id.to_int txn in
      if not (Hashtbl.mem acc.live k) then Hashtbl.replace acc.live k { last; pages = Int_set.empty })
    active

let restart acc active =
  Hashtbl.reset acc.live;
  acc.added <- 0;
  seed acc active

let step acc lsn (pk : Log_record.peek) =
  let txn = pk.Log_record.p_txn in
  let k = Txn_id.to_int txn in
  match pk.Log_record.p_kind with
  | Log_record.K_checkpoint -> ()
  | Log_record.K_begin -> (
      match Hashtbl.find_opt acc.live k with
      | Some e -> e.last <- lsn
      | None -> Hashtbl.replace acc.live k { last = lsn; pages = Int_set.empty })
  | Log_record.K_commit | Log_record.K_end -> Hashtbl.remove acc.live k
  | Log_record.K_abort -> (
      match Hashtbl.find_opt acc.live k with Some e -> e.last <- lsn | None -> ())
  | Log_record.K_page_op _ | Log_record.K_clr _ ->
      if not (Txn_id.is_nil txn) then begin
        let page = Page_id.to_int pk.Log_record.p_page in
        match Hashtbl.find_opt acc.live k with
        | Some e ->
            e.last <- lsn;
            let pages = Int_set.add page e.pages in
            if pages != e.pages then begin
              e.pages <- pages;
              acc.added <- acc.added + 1
            end
        | None ->
            Hashtbl.replace acc.live k { last = lsn; pages = Int_set.singleton page };
            acc.added <- acc.added + 1
      end

let losers acc =
  let h = Hashtbl.create (max 1 (Hashtbl.length acc.live)) in
  Hashtbl.iter (fun k e -> Hashtbl.replace h (Txn_id.of_int k) e.last) acc.live;
  h

let pages acc =
  let h = Hashtbl.create (max 1 (Hashtbl.length acc.live)) in
  Hashtbl.iter
    (fun k e ->
      let p = Hashtbl.create 8 in
      Int_set.iter (fun pg -> Hashtbl.replace p pg ()) e.pages;
      Hashtbl.replace h (Txn_id.of_int k) p)
    acc.live;
  h

let loser_pages acc =
  Hashtbl.fold (fun _ e s -> Int_set.union e.pages s) acc.live Int_set.empty
  |> Int_set.elements |> List.map Page_id.of_int
