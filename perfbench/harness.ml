(* Shared machinery of the benchmark: the two clocks, sample sets, device
   pricing, counter brackets, the benchmark's own host-time spans and the
   result line.  Nothing here reaches inside the engine: every number is
   read from a public accessor or an exported counter. *)

module Media = Rw_storage.Media
module Io_stats = Rw_storage.Io_stats
module Sim_clock = Rw_storage.Sim_clock
module Metrics = Rw_obs.Metrics
module Probes = Rw_obs.Probes
module Trace = Rw_obs.Trace
module Prepared_cache = Rw_core.Prepared_cache

(* ---- host clock (CLOCK_MONOTONIC, ns) ---- *)

let host_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (host_ns ())

(* ---- sample sets ---- *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n

  (* Linear interpolation between closest ranks (the common "type 7"
     definition); 0 for an empty set. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (t.n - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= t.n then a.(t.n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
    end

  let max t =
    let m = ref neg_infinity in
    for i = 0 to t.n - 1 do
      if t.data.(i) > !m then m := t.data.(i)
    done;
    if t.n = 0 then 0.0 else !m
end

(* Median of [a.(lo) .. a.(lo + len - 1)]; 0 for an empty range. *)
let median_of a ~lo ~len =
  if len <= 0 then 0.0
  else begin
    let w = Array.sub a lo len in
    Array.sort Float.compare w;
    if len land 1 = 1 then w.(len / 2) else (w.((len / 2) - 1) +. w.(len / 2)) /. 2.0
  end

let ratio num den = if den = 0.0 then 0.0 else num /. den
let ratio_i num den = ratio (float_of_int num) (float_of_int den)

(* ---- simulated devices ---- *)

type device_kind = Log_device | Data_device

type device = { kind : device_kind; media : Media.t; io : Io_stats.t }

(* Simulated time a device's counters stand for, priced exactly as
   [Media] charges it: a fixed latency per random access plus transfer at
   the sequential bandwidth for every byte moved.  Linear in the counters,
   so the price of a counter delta is the delta of the prices. *)
let priced_us (m : Media.t) (s : Io_stats.t) =
  let xfer mb_s b = Media.transfer_us ~mb_s b in
  (float_of_int s.Io_stats.random_reads *. m.Media.rand_read_lat_us)
  +. (float_of_int s.Io_stats.random_writes *. m.Media.rand_write_lat_us)
  +. xfer m.Media.seq_read_mb_s (s.Io_stats.random_read_bytes + s.Io_stats.seq_read_bytes)
  +. xfer m.Media.seq_write_mb_s (s.Io_stats.random_write_bytes + s.Io_stats.seq_write_bytes)

(* One side-file page access on [m] (the sparse file prices an 8 KiB
   random read or write per page). *)
let side_read_us (m : Media.t) =
  m.Media.rand_read_lat_us +. Media.transfer_us ~mb_s:m.Media.seq_read_mb_s Rw_storage.Page.page_size

let side_write_us (m : Media.t) =
  m.Media.rand_write_lat_us
  +. Media.transfer_us ~mb_s:m.Media.seq_write_mb_s Rw_storage.Page.page_size

(* ---- counter snapshots ---- *)

(* Every engine counter the per-layer metrics read. *)
let counters =
  Probes.
    [|
      log_appends;
      log_append_bytes;
      log_segments_loaded;
      commits;
      fetch_hits;
      fetch_misses;
      evictions;
      writebacks;
      page_rewinds;
      ops_undone;
      recovery_pages_on_demand;
      recovery_redone;
      pool_tasks;
      pool_wakes;
      snapshot_pages_materialized;
      snapshot_side_hits;
      whatif_rewinds;
      whatif_pages_rewound;
      whatif_ops_replayed;
      whatif_conflicts;
      repl_bytes_shipped;
    |]

let counter_index c =
  let rec go i =
    if i = Array.length counters then invalid_arg "Harness.counter_index"
    else if counters.(i) == c then i
    else go (i + 1)
  in
  go 0

type snap = {
  sim_us : float;
  log_io : Io_stats.t;  (** summed over every log device in play *)
  data_io : Io_stats.t;  (** summed over every data device in play *)
  log_us : float;  (** priced log device time *)
  data_us : float;  (** priced data device time *)
  probes : int array;
  commit_buckets : int array;  (** [commit_latency_us] histogram buckets *)
  chain_sum : float;  (** [chain_length] histogram sum *)
  pc_hits : int;
  pc_delta : int;
  pc_misses : int;
  minor_words : float;
  major_collections : int;
}

(* What a workload tells the bracket about its engine. *)
type scope = {
  clock : Sim_clock.t;
  devices : unit -> device list;
  cache : unit -> Prepared_cache.t option;
}

let take (sc : scope) =
  let log_io = Io_stats.create () and data_io = Io_stats.create () in
  let log_us = ref 0.0 and data_us = ref 0.0 in
  List.iter
    (fun d ->
      match d.kind with
      | Log_device ->
          Io_stats.add log_io d.io;
          log_us := !log_us +. priced_us d.media d.io
      | Data_device ->
          Io_stats.add data_io d.io;
          data_us := !data_us +. priced_us d.media d.io)
    (sc.devices ());
  let pc_hits, pc_delta, pc_misses =
    match sc.cache () with
    | Some c -> (Prepared_cache.hits c, Prepared_cache.delta_hits c, Prepared_cache.misses c)
    | None -> (0, 0, 0)
  in
  let gc = Gc.quick_stat () in
  {
    sim_us = Sim_clock.now_us sc.clock;
    log_io;
    data_io;
    log_us = !log_us;
    data_us = !data_us;
    probes = Array.map Metrics.counter_value counters;
    commit_buckets = Array.init Metrics.bucket_count (Metrics.hist_bucket Probes.commit_latency_us);
    chain_sum = Metrics.hist_sum Probes.chain_length;
    pc_hits;
    pc_delta;
    pc_misses;
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
  }

let zero =
  {
    sim_us = 0.0;
    log_io = Io_stats.create ();
    data_io = Io_stats.create ();
    log_us = 0.0;
    data_us = 0.0;
    probes = Array.make (Array.length counters) 0;
    commit_buckets = Array.make Metrics.bucket_count 0;
    chain_sum = 0.0;
    pc_hits = 0;
    pc_delta = 0;
    pc_misses = 0;
    minor_words = 0.0;
    major_collections = 0;
  }

let combine ~io f_int f_float a b =
  {
    sim_us = f_float a.sim_us b.sim_us;
    log_io = io a.log_io b.log_io;
    data_io = io a.data_io b.data_io;
    log_us = f_float a.log_us b.log_us;
    data_us = f_float a.data_us b.data_us;
    probes = Array.map2 f_int a.probes b.probes;
    commit_buckets = Array.map2 f_int a.commit_buckets b.commit_buckets;
    chain_sum = f_float a.chain_sum b.chain_sum;
    pc_hits = f_int a.pc_hits b.pc_hits;
    pc_delta = f_int a.pc_delta b.pc_delta;
    pc_misses = f_int a.pc_misses b.pc_misses;
    minor_words = f_float a.minor_words b.minor_words;
    major_collections = f_int a.major_collections b.major_collections;
  }

(* [diff later earlier]: the counter delta of one bracket. *)
let diff later earlier = combine ~io:Io_stats.diff ( - ) ( -. ) later earlier

let add a b =
  let io x y =
    let r = Io_stats.copy x in
    Io_stats.add r y;
    r
  in
  combine ~io ( + ) ( +. ) a b
let probe (s : snap) c = s.probes.(counter_index c)

(* Median of the commit latencies a delta of the log2 histogram holds,
   interpolated linearly inside its bucket (buckets are [2^(k-1), 2^k)). *)
let commit_p50_us (s : snap) =
  let total = Array.fold_left ( + ) 0 s.commit_buckets in
  if total = 0 then 0.0
  else begin
    let half = float_of_int total /. 2.0 in
    let rec go i seen =
      let c = s.commit_buckets.(i) in
      if i = Array.length s.commit_buckets - 1 || float_of_int (seen + c) >= half then begin
        let lo = Metrics.bucket_lower_bound i in
        let hi = if i = 0 then 1.0 else 2.0 *. Float.max lo 1.0 in
        lo +. ((hi -. lo) *. ratio (half -. float_of_int seen) (float_of_int (max c 1)))
      end
      else go (i + 1) (seen + c)
    in
    go 0 0
  end


(* ---- engine accounting read from outside ---- *)

module Database = Rw_engine.Database
module Log_manager = Rw_wal.Log_manager
module Buffer_pool = Rw_buffer.Buffer_pool

let devices db =
  [
    { kind = Log_device; media = Database.log_media db; io = Log_manager.stats (Database.log db) };
    { kind = Data_device; media = Database.media db; io = Rw_storage.Disk.stats (Database.disk db) };
  ]

let scope db =
  {
    clock = Database.clock db;
    devices = (fun () -> devices db);
    cache = (fun () -> Some (Database.prepared_cache db));
  }

(* Simulated CPU the access layer charges per page read: [Access_ctx]'s
   default per-operation charge of 1 µs, halved for reads. *)
let access_read_us = 0.5

(* Simulated CPU the access layer charged a primary-side op: 1 µs per
   logged page operation (each is one [Access_ctx.modify] and one pool
   fetch) plus [access_read_us] per other fetch of the primary's pool.
   [fetches] is the pool's fetch delta over the op and [from] the end of
   log before it; the op's records are classified by header peeks, which
   are unpriced and bypass every log cache. *)
let writer_cpu_us db ~fetches ~from =
  let log = Database.log db in
  let upto = Log_manager.end_lsn log in
  let rec count lsn acc =
    if Rw_storage.Lsn.to_int lsn >= Rw_storage.Lsn.to_int upto then acc
    else begin
      let pk = Log_manager.peek_record log lsn in
      let next = Rw_storage.Lsn.of_int (Rw_storage.Lsn.to_int lsn + pk.Rw_wal.Log_record.p_len) in
      match pk.Rw_wal.Log_record.p_kind with
      | Rw_wal.Log_record.K_page_op _ | Rw_wal.Log_record.K_clr _ -> count next (acc + 1)
      | _ -> count next acc
    end
  in
  let ops = count from 0 in
  float_of_int ops +. (access_read_us *. float_of_int (fetches - ops))

let fetches db =
  let pool = Database.pool db in
  Buffer_pool.hits pool + Buffer_pool.misses pool

(* Attribution bracket of an op on a primary: [open_bracket] before it,
   [device_and_cpu_parts] after it gives its log device, data device and
   access CPU shares plus the counter delta. *)
let open_bracket sc db = (take sc, fetches db, Log_manager.end_lsn (Database.log db))

let device_and_cpu_parts sc db (before, f0, lsn0) =
  let dlt = diff (take sc) before in
  ( dlt,
    [
      ("log_device", dlt.log_us);
      ("data_device", dlt.data_us);
      ("access_cpu", writer_cpu_us db ~fetches:(fetches db - f0) ~from:lsn0);
    ] )

(* ---- JSON ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Non-finite values cannot appear in JSON; the caller reports a run
   holding one as incorrect. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* ---- the benchmark's own host-time spans ---- *)

module Spans = struct
  type span = { name : string; start_ns : int64; dur_ns : int64; parent : int; op : int }

  let on = ref false
  let buf : span list ref = ref []
  let count = ref 0
  let stack : int list ref = ref []
  let current_op = ref 0

  (* Run [f] inside a span named [name]; returns its result and its host
     duration in ms.  Spans are only kept while tracing. *)
  let time name f =
    let t0 = host_ns () in
    if not !on then begin
      let v = f () in
      (v, ms_since t0)
    end
    else begin
      let id = !count in
      incr count;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let finish () =
        let t1 = host_ns () in
        stack := (match !stack with _ :: r -> r | [] -> []);
        buf :=
          { name; start_ns = t0; dur_ns = Int64.sub t1 t0; parent; op = !current_op } :: !buf;
        ms_between t0 t1
      in
      match f () with
      | v -> (v, finish ())
      | exception e ->
          ignore (finish ());
          raise e
    end

  let to_chrome_json () =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":%s,\"cat\":\"host\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%d,\"parent\":%d}}"
             (json_string s.name)
             (Int64.to_float s.start_ns /. 1e3)
             (Int64.to_float s.dur_ns /. 1e3)
             s.op s.parent))
      (List.rev !buf);
    Buffer.add_string b "]}";
    Buffer.contents b
end

(* ---- the engine's sim-clock trace, drained after every traced op ---- *)

module Sim_spans = struct
  (* name -> (count, total simulated µs) *)
  let totals : (string, int * float) Hashtbl.t = Hashtbl.create 16
  let dropped = ref 0
  let kept : Trace.event list ref = ref []
  let kept_ops = ref 0
  let keep_ops = 16

  (* A ring far larger than one unit's events; [drain] empties it after
     every unit. *)
  let start () = Trace.configure ~capacity:(1 lsl 18) ()

  (* Fold the ring into [totals] and empty it; the events of the first
     [keep_ops] traced ops are kept for the dump. *)
  let drain () =
    dropped := !dropped + Trace.dropped ();
    let evs = Trace.events () in
    List.iter
      (fun (e : Trace.event) ->
        if e.Trace.ph = Trace.Span then begin
          let c, d = Option.value (Hashtbl.find_opt totals e.Trace.name) ~default:(0, 0.0) in
          Hashtbl.replace totals e.Trace.name (c + 1, d +. e.Trace.dur)
        end)
      evs;
    if !kept_ops < keep_ops then begin
      kept := List.rev_append evs !kept;
      incr kept_ops
    end;
    Trace.clear ()

  let to_chrome_json () =
    let arg = function
      | Trace.Int i -> string_of_int i
      | Trace.Float f -> json_float f
      | Trace.Str s -> json_string s
    in
    let ev (e : Trace.event) =
      Printf.sprintf
        "{\"name\":%s,\"cat\":%s,\"ph\":%S,\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":2,\"args\":{%s}}"
        (json_string e.Trace.name) (json_string e.Trace.cat)
        (match e.Trace.ph with Trace.Span -> "X" | Trace.Instant -> "i")
        e.Trace.ts e.Trace.dur
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (arg v)) e.Trace.args))
    in
    "{\"traceEvents\":[" ^ String.concat "," (List.rev_map ev !kept) ^ "]}"

  let total_us name = match Hashtbl.find_opt totals name with Some (_, d) -> d | None -> 0.0
  let count name = match Hashtbl.find_opt totals name with Some (c, _) -> c | None -> 0
end

(* ---- result line ---- *)

type metric = { name : string; unit_ : string; value : float }

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " ms)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ---- one run of one workload ---- *)

type run = {
  seed : int;
  seconds : float;
  traced : bool;
  quick : bool;
  setups : Samples.t;  (** host seconds per set-up *)
  calib : Samples.t;  (** host ms per calibration kernel, in the order taken *)
  op_ms : Samples.t;  (** host ms per measured headline op *)
  op_calib : Samples.t;  (** per measured op, the number of kernels taken before it *)
  op_sim_ms : Samples.t;  (** simulated ms per measured headline op *)
  mutable loop_sim_us : float;  (** simulated µs of the measured loop, oracle work excluded *)
  unit_ms : Samples.t;  (** host ms per measured loop unit, oracle work excluded *)
  unit_calib : Samples.t;  (** per measured loop unit, the number of kernels taken before it *)
  mutable attempted : int;
  mutable failed : int;
  mutable acc : snap;  (** summed counter deltas of the traced units *)
  mutable traced_units : int;
  mutable op_acc : snap;  (** summed counter deltas of the traced headline ops alone *)
  mutable op_sim_us : float;  (** summed simulated µs of the traced headline ops, as measured *)
  mutable traced_ops : int;
  traced_cost : Samples.t;  (** host ms per simulated ms, traced ops *)
  untraced_cost : Samples.t;  (** host ms per simulated ms, untraced ops *)
  parts : (string, float) Hashtbl.t;  (** simulated µs per part, summed over traced ops *)
  mutable worst_unattributed : float;
      (** largest |unattributed| / delta over every attributed bracket *)
  layer : (string, Samples.t) Hashtbl.t;  (** workload-specific per-layer samples *)
  facts : Buffer.t;  (** sizing facts printed before the result *)
}

let new_run ~seed ~seconds ~traced ~quick =
  {
    seed;
    seconds;
    traced;
    quick;
    setups = Samples.create ();
    calib = Samples.create ();
    op_ms = Samples.create ();
    op_calib = Samples.create ();
    op_sim_ms = Samples.create ();
    loop_sim_us = 0.0;
    unit_ms = Samples.create ();
    unit_calib = Samples.create ();
    attempted = 0;
    failed = 0;
    acc = zero;
    traced_units = 0;
    op_acc = zero;
    op_sim_us = 0.0;
    traced_ops = 0;
    traced_cost = Samples.create ();
    untraced_cost = Samples.create ();
    parts = Hashtbl.create 8;
    worst_unattributed = 0.0;
    layer = Hashtbl.create 32;
    facts = Buffer.create 256;
  }

let fact r fmt = Printf.ksprintf (fun s -> Buffer.add_string r.facts (s ^ "\n")) fmt

let sample r name v =
  let s =
    match Hashtbl.find_opt r.layer name with
    | Some s -> s
    | None ->
        let s = Samples.create () in
        Hashtbl.replace r.layer name s;
        s
  in
  Samples.add s v

let layer_samples r name =
  match Hashtbl.find_opt r.layer name with Some s -> s | None -> Samples.create ()

(* Self-test switch: each workload corrupts one recorded oracle answer,
   which must then surface as a failed op. *)
let corrupt_oracle = ref false

(* An oracle verdict for one attempted operation. *)
let check r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

(* Whether measured unit [i] (0-based) runs traced: in a traced run every
   other unit, so the untraced units in between give the overhead
   baseline on the same state trajectory. *)
let unit_traced r i = r.traced && i land 1 = 1

(* Run one traced unit: the engine's trace collector and the benchmark's
   spans on, counters bracketed and summed into [r.acc]. *)
let traced_unit r sc f =
  Spans.current_op := r.traced_units;
  let before = take sc in
  Trace.enable ();
  Spans.on := true;
  let v =
    Fun.protect f ~finally:(fun () ->
        Spans.on := false;
        Spans.stack := [];
        Trace.disable ())
  in
  let after = take sc in
  Sim_spans.drain ();
  r.acc <- add r.acc (diff after before);
  r.traced_units <- r.traced_units + 1;
  v

(* Sim-clock attribution of one bracketed piece of work: [delta_us] is
   its clock delta, [dlt] its counter delta and [parts] the layers' shares
   of [delta_us]; the residue is what no part explains.  Every bracket
   feeds [worst_unattributed]; a headline op ([op], the default) also
   feeds the per-op sums, so that every "per op" figure covers exactly
   the traced headline ops and nothing else the traced units ran. *)
let attribute ?(op = true) r ~delta_us ~dlt parts =
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
  let residue = delta_us -. explained in
  let share = ratio (Float.abs residue) delta_us in
  if share > r.worst_unattributed then r.worst_unattributed <- share;
  if op then begin
    List.iter
      (fun (k, v) ->
        Hashtbl.replace r.parts k (v +. Option.value (Hashtbl.find_opt r.parts k) ~default:0.0))
      (("unattributed", residue) :: parts);
    r.op_sim_us <- r.op_sim_us +. delta_us;
    r.op_acc <- add r.op_acc dlt;
    r.traced_ops <- r.traced_ops + 1
  end

(* Record one measured headline op.  In a traced run the op's host cost
   per simulated ms also feeds the tracing-overhead estimate: ops differ
   widely in size, but tracing never moves the simulated clock, so host
   ms per simulated ms compares traced and untraced ops of any size. *)
let measured_op r ~traced ~host_ms ~sim_us =
  Samples.add r.op_ms host_ms;
  Samples.add r.op_calib (float_of_int (Samples.count r.calib));
  Samples.add r.op_sim_ms (sim_us /. 1e3);
  if r.traced && sim_us > 0.0 then
    Samples.add (if traced then r.traced_cost else r.untraced_cost) (host_ms /. (sim_us /. 1e3))

(* Account one unit of the measured loop (an op with its surrounding
   work, or a round), oracle work excluded. *)
let measured_unit r ~host_ms ~sim_us =
  r.loop_sim_us <- r.loop_sim_us +. sim_us;
  Samples.add r.unit_ms host_ms;
  Samples.add r.unit_calib (float_of_int (Samples.count r.calib))

(* ---- host times at a reference machine speed ---- *)

(* The hosts this benchmark runs on are shared, and the speed of their
   memory hierarchy moves by a third or more within seconds as other
   tenants come and go, while a pure arithmetic loop stays flat.  So
   every end-to-end host time is reported at a reference machine speed: a
   fixed calibration kernel runs between measured units, outside every
   timed region ([calibrate]), and each unit's host time is multiplied by
   [calib_ref_ms] over the median of the [calib_window] kernel times taken
   nearest to it.  The kernel is the engine's own kind of work, small
   allocations and string hashing, on a freshly emptied minor heap: it
   allocates less than the minor heap holds and no block too large for
   it, so no collection runs inside it and the engine's heap cannot move
   its cost.  The engine's work can move it only through the caches it
   leaves behind: right after an op the kernel ran 4-8% slower than when
   repeated at once.  [calib_ref_ms] is about the kernel's median at the
   quietest times on the 2-vCPU host the benchmark was written on. *)
let calib_ref_ms = 0.2
let calib_window = 21

let calib_kernel () =
  Gc.minor ();
  let t0 = host_ns () in
  for _ = 1 to 2 do
    let h = Hashtbl.create 16 in
    for i = 1 to 500 do
      Hashtbl.replace h (string_of_int i) (Bytes.create 64)
    done;
    ignore (Sys.opaque_identity h)
  done;
  ms_since t0

let calibrate r = Samples.add r.calib (calib_kernel ())

(* [factors.(c)]: the speed factor of a unit taken after [c] kernels,
   from the window of kernels centred on it (1 if there are none). *)
let speed_factors r =
  let n = Samples.count r.calib in
  let len = min calib_window n in
  Array.init (n + 1) (fun c ->
      let lo = max 0 (min (c - (calib_window / 2)) (n - len)) in
      if n = 0 then 1.0 else ratio calib_ref_ms (median_of r.calib.Samples.data ~lo ~len))

(* The measured ops' host ms and the measured loop's host ms, both at the
   reference speed. *)
let at_reference_speed r =
  let factors = speed_factors r in
  let scaled ms at i = ms.Samples.data.(i) *. factors.(int_of_float at.Samples.data.(i)) in
  let ops = Samples.create () in
  for i = 0 to Samples.count r.op_ms - 1 do
    Samples.add ops (scaled r.op_ms r.op_calib i)
  done;
  let loop = ref 0.0 in
  for i = 0 to Samples.count r.unit_ms - 1 do
    loop := !loop +. scaled r.unit_ms r.unit_calib i
  done;
  (ops, !loop)

let part_us r k = Option.value (Hashtbl.find_opt r.parts k) ~default:0.0

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Time one set-up [k] times, keeping the last; the heap is compacted
   between rounds so the peak heap reflects one set-up.  Each set-up's
   time is taken at the reference speed, from the median of the kernels
   run just before and just after it. *)
let setup_median r ~k build =
  let last = ref None and raw = ref [] in
  let kernels () = Array.init (calib_window / 2) (fun _ -> calib_kernel ()) in
  for _ = 1 to k do
    last := None;
    Gc.compact ();
    let before = kernels () in
    let t0 = host_ns () in
    let v = build () in
    let s = ms_since t0 /. 1e3 in
    let around = Array.append before (kernels ()) in
    Samples.add r.setups (s *. ratio calib_ref_ms (median_of around ~lo:0 ~len:(Array.length around)));
    raw := s :: !raw;
    last := Some v
  done;
  fact r "set-ups as measured: %s s"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !raw));
  Option.get !last
