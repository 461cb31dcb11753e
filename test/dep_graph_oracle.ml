(* Whole-graph reference implementation of the what-if dependency graph.

   [build] materializes the graph over every retained committed
   transaction, from [Log_manager.txn_summaries]: a per-page writer
   table, an edge between consecutive distinct writers of each page (in
   first-write LSN order), and per-node successor arrays.  The engine's
   [Dep_graph] answers the same queries on demand from the per-page
   first-writer index; this graph is what it must agree with — same
   nodes, same closures, same direct dependents, same successors, same
   edge count. *)

module Lsn = Rw_storage.Lsn
module Page_id = Rw_storage.Page_id
module Txn_id = Rw_wal.Txn_id
module Log_manager = Rw_wal.Log_manager
module Dep_graph = Rw_whatif.Dep_graph

type t = {
  nodes : Dep_graph.node array; (* ascending by commit LSN *)
  by_txn : (int, int) Hashtbl.t; (* txn id -> index into [nodes] *)
  succ : int list array; (* direct dependents, ascending index *)
  edge_count : int;
  page_writers : (int64, (Lsn.t * int) list ref) Hashtbl.t;
      (* per page, the (first-write LSN, writer index) pairs *)
}

let node_of_summary (s : Log_manager.txn_summary) =
  {
    Dep_graph.txn = s.ts_txn;
    commit_lsn = s.ts_commit_lsn;
    commit_wall_us = s.ts_commit_wall_us;
    first_lsn = s.ts_first_lsn;
    last_op_lsn = s.ts_last_lsn;
    ops = s.ts_ops;
    structural = s.ts_structural;
    has_clr = s.ts_has_clr;
    writes = s.ts_writes;
  }

let build ~log =
  let nodes = Array.of_list (List.map node_of_summary (Log_manager.txn_summaries log)) in
  let n = Array.length nodes in
  let by_txn = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun i (nd : Dep_graph.node) -> Hashtbl.replace by_txn (Txn_id.to_int nd.txn) i) nodes;
  let page_writers : (int64, (Lsn.t * int) list ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i (nd : Dep_graph.node) ->
      List.iter
        (fun (page, lsn) ->
          let key = Page_id.to_int64 page in
          let cell =
            match Hashtbl.find_opt page_writers key with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add page_writers key c;
                c
          in
          cell := (lsn, i) :: !cell)
        nd.writes)
    nodes;
  let succ = Array.make n [] in
  let edge_seen : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let edge_count = ref 0 in
  let add_edge i j =
    if i <> j && not (Hashtbl.mem edge_seen (i, j)) then begin
      Hashtbl.add edge_seen (i, j) ();
      succ.(i) <- j :: succ.(i);
      incr edge_count
    end
  in
  Hashtbl.iter
    (fun _page cell ->
      let writers = List.sort (fun (a, _) (b, _) -> Lsn.compare a b) !cell in
      let rec link = function
        | (_, i) :: ((_, j) :: _ as rest) ->
            add_edge i j;
            link rest
        | [ _ ] | [] -> ()
      in
      link writers)
    page_writers;
  Array.iteri (fun i l -> succ.(i) <- List.sort_uniq compare l) succ;
  { nodes; by_txn; succ; edge_count = !edge_count; page_writers }

let node_count t = Array.length t.nodes
let edge_count t = t.edge_count
let nodes t = Array.to_list t.nodes

let find t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | Some i -> Some t.nodes.(i)
  | None -> None

let dependents t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | None -> []
  | Some i -> List.map (fun j -> t.nodes.(j)) t.succ.(i)

let closure t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | None -> []
  | Some root ->
      let in_closure = Array.make (Array.length t.nodes) false in
      let rec visit i =
        if not in_closure.(i) then begin
          in_closure.(i) <- true;
          List.iter visit t.succ.(i)
        end
      in
      visit root;
      (* Nodes are stored ascending by commit LSN, so a left-to-right
         sweep yields the closure in serialization order. *)
      let acc = ref [] in
      for i = Array.length t.nodes - 1 downto 0 do
        if in_closure.(i) then acc := t.nodes.(i) :: !acc
      done;
      !acc

let successors t txn =
  match Hashtbl.find_opt t.by_txn (Txn_id.to_int txn) with
  | None -> []
  | Some root ->
      let acc = ref [] in
      for i = Array.length t.nodes - 1 downto root do
        acc := t.nodes.(i) :: !acc
      done;
      !acc

(* The committed writers of one page, ascending by first-write LSN —
   what [Log_manager.page_writers ~above:Lsn.nil] must return. *)
let page_writers t page =
  match Hashtbl.find_opt t.page_writers (Page_id.to_int64 page) with
  | None -> []
  | Some cell ->
      List.sort (fun (a, _) (b, _) -> Lsn.compare a b) !cell
      |> List.map (fun (lsn, i) -> (lsn, t.nodes.(i).Dep_graph.txn))

let written_pages t =
  Hashtbl.fold (fun key _ acc -> Page_id.of_int64 key :: acc) t.page_writers []
  |> List.sort Page_id.compare
