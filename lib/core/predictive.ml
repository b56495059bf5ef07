open Ccdsm_util
module Machine = Ccdsm_tempest.Machine
module Network = Ccdsm_tempest.Network
module Tag = Ccdsm_tempest.Tag
module Trace = Ccdsm_tempest.Trace
module Faults = Ccdsm_tempest.Faults
module Engine = Ccdsm_proto.Engine
module Directory = Ccdsm_proto.Directory
module Coherence = Ccdsm_proto.Coherence

module Obs = Ccdsm_obs.Obs

type stats = {
  mutable faults_recorded : int;
  mutable presend_msgs : int;
  mutable presend_blocks : int;
  mutable presend_bytes : int;
  mutable presend_redundant : int;
  mutable presend_undone : int;
  mutable presend_grants_r : int;
  mutable presend_grants_w : int;
}

(* A growable int vector, reused from one presend to the next. *)
type vec = { mutable keys : int array; mutable len : int }

let vec () = { keys = [||]; len = 0 }

type t = {
  eng : Engine.t;
  machine : Machine.t;
  schedules : (int, Schedule.t) Hashtbl.t;
  recall : vec;
  inval : vec;
  data : vec;
  grant_only : vec;
  grants : vec;
  mutable presended : int array;
      (* this phase's presend grants as sorted (node, block) keys *)
  lost : (int * Machine.block, unit) Hashtbl.t;
      (* (node, block) presend grants dropped by the fault injector this
         phase: the node believes it holds the block, the simulator knows it
         does not, and the next access falls back to a demand miss. *)
  mutable current : int option;
  per_block_us : float;
  coalesce : bool;
  conflict_action : [ `Ignore | `First_stable ];
  record_us : float;
  st : stats;
  run_len_hist : Obs.Histogram.t option;
      (* bulk-coalescing run lengths, observed as each presend queue is
         flushed; resolved from the machine's registry at creation *)
}

let engine t = t.eng
let stats t = t.st
let in_phase t = t.current
let schedule t ~phase = Hashtbl.find_opt t.schedules phase

(* Presend grants dropped in flight this phase, sorted for canonical output.
   This is genuine protocol state (the next access to a lost (node, block)
   pair takes the fallback path), so the model checker folds it into its
   canonicalized state. *)
let lost_grants t =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) t.lost [])

let schedule_for t phase =
  match Hashtbl.find_opt t.schedules phase with
  | Some s -> s
  | None ->
      let s = Schedule.create () in
      Hashtbl.add t.schedules phase s;
      s

(* The presend's queues and its set of grants hold packed int keys:
   [key hi b = (hi lsl 40) lor b], where [hi] is a node (grants) or a
   (source, destination) pair [src * nodes + dst] (queues).  Nodes are at
   most {!Nodeset.max_nodes} = 2^10, so a pair fits in 20 bits, and
   ascending keys order pairs first and blocks within a pair. *)
let block_bits = 40
let key hi b = (hi lsl block_bits) lor b
let pair_of k = k lsr block_bits

let push v k =
  if v.len = Array.length v.keys then begin
    let keys = Array.make (max 256 (2 * v.len)) 0 in
    Array.blit v.keys 0 keys 0 v.len;
    v.keys <- keys
  end;
  Array.unsafe_set v.keys v.len k;
  v.len <- v.len + 1

(* The entries of [v] in ascending order, as a fresh array.  Merge sort:
   about twice as fast as [Array.sort]'s heap sort on these queues. *)
let sorted v =
  let a = Array.sub v.keys 0 v.len in
  Array.stable_sort (fun (x : int) y -> compare x y) a;
  a

(* Whether [k] is in the ascending array [a]. *)
let mem_sorted a k =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get a mid in
    x = k || if x < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let record t ~node b ~write =
  match t.current with
  | None -> ()
  | Some p ->
      if mem_sorted t.presended (key node b) then t.st.presend_undone <- t.st.presend_undone + 1;
      if Hashtbl.mem t.lost (node, b) then begin
        (* The presend grant for this block was dropped in flight, so this
           demand miss is the recovery path; the record_read/record_write
           below doubles as the incremental schedule repair. *)
        Hashtbl.remove t.lost (node, b);
        Machine.note_presend_fallback t.machine ~node;
        if Machine.traced t.machine then
          Machine.emit t.machine (Trace.Presend_fallback { phase = p; block = b; node; write })
      end;
      Machine.charge t.machine ~node Machine.Remote_wait t.record_us;
      let s = schedule_for t p in
      let conflicts_before = Schedule.conflicts s in
      let hits_before = Schedule.conflict_hits s in
      if write then Schedule.record_write s b ~writer:node else Schedule.record_read s b ~reader:node;
      if Machine.traced t.machine then begin
        Machine.emit t.machine (Trace.Sched_record { phase = p; block = b; node; write });
        (* [conflicts] now counts every colliding insertion; the trace event
           stays transition-only (hits on an already-conflicted block leave
           [conflict_hits] as the tell), so trace censuses are unchanged. *)
        if Schedule.conflicts s > conflicts_before && Schedule.conflict_hits s = hits_before then
          Machine.emit t.machine (Trace.Sched_conflict { phase = p; block = b })
      end;
      t.st.faults_recorded <- t.st.faults_recorded + 1

(* -- presend ------------------------------------------------------------- *)

(* [f src dst lo hi] for each maximal range [lo, hi) of one pair in the
   sorted keys [a], in ascending pair order. *)
let iter_pairs ~nodes a f =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let p = pair_of a.(!lo) in
    let hi = ref (!lo + 1) in
    while !hi < n && pair_of a.(!hi) = p do
      incr hi
    done;
    f (p / nodes) (p mod nodes) !lo !hi;
    lo := !hi
  done

(* The number of keys of pair [p] in the sorted keys [a], searching from
   [!j]; [j] moves past every smaller pair, so ascending queries over one
   array cost one walk. *)
let count_pair a j p =
  let n = Array.length a in
  while !j < n && pair_of a.(!j) < p do
    incr j
  done;
  let start = !j in
  while !j < n && pair_of a.(!j) = p do
    incr j
  done;
  !j - start

(* Flush the presend queues.  With coalescing on, each (source,
   destination) pair exchanges one gather message: runs of neighbouring
   blocks share an 8-byte address header, so contiguity still pays.  With
   coalescing off (ablation), every block travels alone.  Each queue is
   sorted, then swept pair by pair, so output does not depend on the order
   the scan queued in. *)
let flush_presend t =
  let m = t.machine in
  let nodes = Machine.num_nodes m in
  let net = Machine.net m in
  let ctrl = net.Network.ctrl_bytes in
  let bb = Machine.block_bytes m in
  let send ~from_ ~dst ~kind ~bytes =
    Machine.count_msg m ~node:from_ ~dst ~kind ~bytes ();
    Machine.charge m ~node:from_ Machine.Presend (Network.msg_cost net ~bytes);
    t.st.presend_msgs <- t.st.presend_msgs + 1
  in
  let charge_home h cost = Machine.charge m ~node:h Machine.Presend cost in
  (* [f bytes blocks] for each message carrying the block list [a.(lo..hi-1)]
     (one pair, ascending): one gather message when coalescing, one per block
     otherwise.  Each run's length is observed as it closes. *)
  let block_list_msgs a lo hi f =
    let runs = ref 0 in
    let start = ref lo in
    for i = lo to hi - 1 do
      if i = hi - 1 || a.(i + 1) <> a.(i) + 1 then begin
        incr runs;
        (match t.run_len_hist with
        | Some h -> Obs.Histogram.observe h (float_of_int (i + 1 - !start))
        | None -> ());
        start := i + 1
      end
    done;
    let nblocks = hi - lo in
    if t.coalesce then f (ctrl + (nblocks * bb) + (8 * !runs)) nblocks
    else
      for _ = 1 to nblocks do
        f (ctrl + bb) 1
      done
  in
  (* Recalls: request from home, bulk data back from the old owner; the
     home stalls until the data is back, so it pays the round trip. *)
  let recall = sorted t.recall in
  iter_pairs ~nodes recall (fun o h lo hi ->
      Machine.count_msg m ~node:h ~dst:o ~kind:Trace.Recall ~bytes:ctrl ();
      charge_home h (Network.msg_cost net ~bytes:ctrl);
      block_list_msgs recall lo hi (fun bytes _ ->
          Machine.count_msg m ~node:o ~dst:h ~kind:Trace.Data ~bytes ();
          charge_home h (Network.msg_cost net ~bytes);
          t.st.presend_msgs <- t.st.presend_msgs + 2;
          t.st.presend_bytes <- t.st.presend_bytes + bytes));
  (* Invalidation notices: one batched notice per victim plus one ack. *)
  iter_pairs ~nodes (sorted t.inval) (fun h r lo hi ->
      send ~from_:h ~dst:r ~kind:Trace.Inval ~bytes:(ctrl + (4 * (hi - lo)));
      Machine.count_msg m ~node:r ~dst:h ~kind:Trace.Ack ~bytes:ctrl ();
      charge_home h (Network.msg_cost net ~bytes:ctrl);
      t.st.presend_msgs <- t.st.presend_msgs + 1);
  (* Data grants; a pair's permission-only upgrades ride on its first data
     message. *)
  let data = sorted t.data in
  let grant_only = sorted t.grant_only in
  let g = ref 0 in
  iter_pairs ~nodes data (fun h dest lo hi ->
      let extra = ref (4 * count_pair grant_only g ((h * nodes) + dest)) in
      block_list_msgs data lo hi (fun bytes blocks ->
          let bytes = bytes + !extra in
          extra := 0;
          send ~from_:h ~dst:dest ~kind:Trace.Data ~bytes;
          t.st.presend_blocks <- t.st.presend_blocks + blocks;
          t.st.presend_bytes <- t.st.presend_bytes + bytes));
  (* Pure permission upgrades with no data riding along. *)
  let d = ref 0 in
  iter_pairs ~nodes grant_only (fun h dest lo hi ->
      if count_pair data d ((h * nodes) + dest) = 0 then
        send ~from_:h ~dst:dest ~kind:Trace.Grant ~bytes:(ctrl + (4 * (hi - lo))));
  (* "the protocol enforces a global barrier synchronization to ensure
     that all protocol cache block states are stable" (section 3.4). *)
  Machine.barrier m ~bucket:Machine.Presend

(* The presend (section 3.4): one scan over the phase's schedule in sorted
   block order that queues every transfer by (source, destination), then
   one bulk flush of the queues. *)
let presend_scan t phase sched =
  let m = t.machine in
  let dir = t.eng.Engine.dir in
  let net = Machine.net m in
  let ctrl = net.Network.ctrl_bytes in
  let nodes = Machine.num_nodes m in
  if Machine.num_blocks m > 1 lsl block_bits then
    invalid_arg "Predictive: block ids must stay below 2^40";
  (* Queues, so every leg of the presend travels in bulk: [recall] brings
     dirty copies back to their homes, [inval] carries batched invalidation
     notices, [data] carries block grants, [grant_only] carries
     permission-only upgrades.  [grants] collects this phase's grants. *)
  List.iter (fun v -> v.len <- 0) [ t.recall; t.inval; t.data; t.grant_only; t.grants ];
  let queue v src dst b = push v (key ((src * nodes) + dst) b) in
  let downgrade node b =
    Machine.note_downgrade m ~node;
    Machine.set_tag m ~node b Tag.Read_only
  in
  let invalidate node b =
    Machine.note_invalidation m ~node;
    Machine.set_tag m ~node b Tag.Invalid
  in
  (* Fault injection interposes on the per-(block, destination) grants —
     the presend's semantic unit — and the verdict is drawn BEFORE any
     tag or directory mutation.  A dropped grant therefore simply never
     happens: machine state stays trivially consistent and the receiver's
     next access degrades to a demand miss (recorded in [t.lost], counted
     as a presend fallback when it fires).  The lost message still
     travelled and is counted; only remote destinations draw a verdict,
     since a grant to the home node moves no message.  The bulk
     recall/invalidation legs stay reliable — the injector models lossy
     delivery of the speculative grants, which is where the predictive
     protocol's graceful degradation lives. *)
  let inj = Machine.faults m in
  let verdict_for ~dst ~h = match inj with Some f when dst <> h -> Faults.verdict f | _ -> Faults.Deliver in
  let drop_grant ~h ~dst ~kind ~bytes b =
    (match inj with Some f -> Faults.note_drop f | None -> assert false);
    Machine.count_msg m ~node:h ~dst ~kind ~bytes ();
    Machine.charge m ~node:h Machine.Presend (Network.msg_cost net ~bytes);
    t.st.presend_msgs <- t.st.presend_msgs + 1;
    t.st.presend_bytes <- t.st.presend_bytes + bytes;
    if Machine.traced m then Machine.emit m (Trace.Msg_drop { src = h; dst; kind });
    Hashtbl.replace t.lost (dst, b) ()
  in
  (* Duplicate / Delay side effects for a delivered grant; Deliver is free. *)
  let grant_noise ~h ~dst ~kind ~bytes v =
    match (v, inj) with
    | Faults.Duplicate, Some f ->
        Faults.note_dup f;
        Machine.count_msg m ~node:h ~dst ~kind ~bytes ();
        t.st.presend_msgs <- t.st.presend_msgs + 1
    | Faults.Delay, Some f ->
        Faults.note_delay f;
        Machine.charge m ~node:h Machine.Presend (Faults.plan f).Faults.delay_us
    | _ -> ()
  in
  Schedule.iter_sorted sched (fun b mark ->
      let h = Machine.home m b in
      Machine.charge m ~node:h Machine.Presend t.per_block_us;
      (* Conflict handling: by default no action (the paper's
         implementation); the First_stable extension anticipates the
         stable state the block held before the conflict (section 3.4's
         suggestion). *)
      let mark =
        match (mark, t.conflict_action) with
        | Schedule.Conflict _, `Ignore -> mark
        | Schedule.Conflict (Schedule.Pre_readers r), `First_stable -> Schedule.Readers r
        | Schedule.Conflict (Schedule.Pre_writer w), `First_stable -> Schedule.Writer w
        | _ -> mark
      in
      match mark with
      | Schedule.Conflict _ -> ()
      | Schedule.Readers rs ->
          (* Bring the data home (downgrading any writer), then forward
             readable copies to every marked reader lacking one. *)
          (match Directory.get dir b with
          | Directory.Exclusive o ->
              downgrade o b;
              Directory.set dir b (Directory.Shared (Nodeset.singleton o));
              if o <> h then queue t.recall o h b
          | Directory.Shared _ -> ());
          let cur =
            match Directory.get dir b with
            | Directory.Shared s -> s
            | Directory.Exclusive _ -> assert false
          in
          let missing = Nodeset.diff rs cur in
          if Nodeset.is_empty missing then
            t.st.presend_redundant <- t.st.presend_redundant + 1
          else begin
            let dropped = ref Nodeset.empty in
            Nodeset.iter
              (fun r ->
                let bytes = ctrl + Machine.block_bytes m in
                match verdict_for ~dst:r ~h with
                | Faults.Drop ->
                    dropped := Nodeset.add r !dropped;
                    drop_grant ~h ~dst:r ~kind:Trace.Data ~bytes b
                | v ->
                    grant_noise ~h ~dst:r ~kind:Trace.Data ~bytes v;
                    Machine.set_tag m ~node:r b Tag.Read_only;
                    push t.grants (key r b);
                    (* Always-on, mirroring the Presend trace event
                       one-for-one so a trace-derived count agrees with
                       this counter to the exact integer. *)
                    t.st.presend_grants_r <- t.st.presend_grants_r + 1;
                    if Machine.traced m then
                      Machine.emit m (Trace.Presend { phase; block = b; dst = r; write = false });
                    if r <> h then queue t.data h r b)
              missing;
            let granted =
              if Nodeset.is_empty !dropped then rs else Nodeset.diff rs !dropped
            in
            Directory.set dir b (Directory.Shared (Nodeset.union cur granted))
          end
      | Schedule.Writer w ->
          if Tag.equal (Machine.tag m ~node:w b) Tag.Read_write then
            t.st.presend_redundant <- t.st.presend_redundant + 1
          else begin
            let had_copy = Tag.permits_read (Machine.tag m ~node:w b) in
            let kind = if had_copy then Trace.Grant else Trace.Data in
            let bytes = if had_copy then ctrl else ctrl + Machine.block_bytes m in
            match verdict_for ~dst:w ~h with
            | Faults.Drop ->
                (* The write grant never arrives, so the whole block
                   action is skipped — no invalidations, no directory
                   change: the writer's demand miss does them later. *)
                drop_grant ~h ~dst:w ~kind ~bytes b
            | v ->
                grant_noise ~h ~dst:w ~kind ~bytes v;
                (match Directory.get dir b with
                | Directory.Exclusive o ->
                    invalidate o b;
                    if o <> h then queue t.recall o h b
                | Directory.Shared readers ->
                    Nodeset.iter
                      (fun r ->
                        invalidate r b;
                        if r <> h then queue t.inval h r b)
                      (Nodeset.remove w readers));
                Machine.set_tag m ~node:w b Tag.Read_write;
                push t.grants (key w b);
                t.st.presend_grants_w <- t.st.presend_grants_w + 1;
                if Machine.traced m then
                  Machine.emit m (Trace.Presend { phase; block = b; dst = w; write = true });
                if w <> h then
                  if had_copy then queue t.grant_only h w b else queue t.data h w b;
                Directory.set dir b (Directory.Exclusive w)
          end);
  t.presended <- sorted t.grants;
  flush_presend t

let presend t phase =
  match Hashtbl.find_opt t.schedules phase with
  | None -> ()
  | Some sched when Schedule.cardinal sched = 0 -> ()
  | Some sched -> presend_scan t phase sched

(* -- schedule corruption (fault injection) -------------------------------- *)

(* With probability [plan.corrupt] per phase entry, one recorded entry is
   corrupted before the presend runs: either invalidated outright (the
   presend forgets a transfer — consumers fall back to demand misses) or
   retargeted to a random node (the presend moves the block to the wrong
   place — wasted traffic, and the real consumers still demand-miss).  The
   next faults re-record the truth, which is the incremental repair. *)
let corrupt_schedule t phase =
  match Machine.faults t.machine with
  | None -> ()
  | Some f -> (
      let plan = Faults.plan f in
      if plan.Faults.corrupt > 0.0 then
        match Hashtbl.find_opt t.schedules phase with
        | Some s when Schedule.cardinal s > 0 && Faults.flip f plan.Faults.corrupt ->
            Faults.note_corruption f;
            let m = t.machine in
            let b = Schedule.nth_sorted s (Faults.draw_int f (Schedule.cardinal s)) in
            if Faults.draw_bool f then begin
              Schedule.remove s b;
              if Machine.traced m then
                Machine.emit m (Trace.Sched_corrupt { phase; block = b; node = None })
            end
            else begin
              let victim = Faults.draw_int f (Machine.num_nodes m) in
              let mark =
                if Faults.draw_bool f then Schedule.Writer victim
                else Schedule.Readers (Nodeset.singleton victim)
              in
              Schedule.set_mark s b mark;
              if Machine.traced m then
                Machine.emit m (Trace.Sched_corrupt { phase; block = b; node = Some victim })
            end
        | _ -> ())

(* -- construction -------------------------------------------------------- *)

let create ?(per_block_us = 1.0) ?(record_us = 2.0) ?(coalesce = true)
    ?(conflict_action = `Ignore) machine =
  let eng = Engine.create machine in
  let t =
    {
      eng;
      machine;
      schedules = Hashtbl.create 16;
      recall = vec ();
      inval = vec ();
      data = vec ();
      grant_only = vec ();
      grants = vec ();
      presended = [||];
      lost = Hashtbl.create 32;
      current = None;
      per_block_us;
      record_us;
      coalesce;
      conflict_action;
      st =
        {
          faults_recorded = 0;
          presend_msgs = 0;
          presend_blocks = 0;
          presend_bytes = 0;
          presend_redundant = 0;
          presend_undone = 0;
          presend_grants_r = 0;
          presend_grants_w = 0;
        };
      run_len_hist =
        (match Machine.obs machine with
        | None -> None
        | Some reg -> Some (Obs.Registry.histogram reg "ccdsm_bulk_run_length"));
    }
  in
  Machine.install machine
    {
      Machine.on_read_fault =
        (fun ~node b ->
          Engine.demand_read eng ~bucket:Machine.Remote_wait ~node b;
          record t ~node b ~write:false);
      Machine.on_write_fault =
        (fun ~node b ->
          Engine.demand_write eng ~bucket:Machine.Remote_wait ~node b;
          record t ~node b ~write:true);
    };
  t

let coherence t =
  Coherence.traced t.machine
  {
    Coherence.name = "predictive";
    phase_begin =
      (fun ~phase ->
        t.current <- Some phase;
        t.presended <- [||];
        Hashtbl.reset t.lost;
        corrupt_schedule t phase;
        presend t phase);
    phase_end = (fun ~phase:_ -> t.current <- None);
    flush_schedule =
      (fun ~phase ->
        match Hashtbl.find_opt t.schedules phase with
        | Some s -> Schedule.clear s
        | None -> ());
    stats =
      (fun () ->
        let entries =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.cardinal s) t.schedules 0
        in
        let conflicts =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.conflicts s) t.schedules 0
        in
        let conflict_hits =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.conflict_hits s) t.schedules 0
        in
        let rewrites =
          Hashtbl.fold (fun _ s acc -> acc + Schedule.rewrites s) t.schedules 0
        in
        [
          ("schedules", float_of_int (Hashtbl.length t.schedules));
          ("schedule_entries", float_of_int entries);
          ("schedule_conflicts", float_of_int conflicts);
          ("schedule_conflict_hits", float_of_int conflict_hits);
          ("schedule_rewrites", float_of_int rewrites);
          ("faults_recorded", float_of_int t.st.faults_recorded);
          ("presend_msgs", float_of_int t.st.presend_msgs);
          ("presend_blocks", float_of_int t.st.presend_blocks);
          ("presend_bytes", float_of_int t.st.presend_bytes);
          ("presend_redundant", float_of_int t.st.presend_redundant);
          ("presend_undone", float_of_int t.st.presend_undone);
          ("presend_grants_read", float_of_int t.st.presend_grants_r);
          ("presend_grants_write", float_of_int t.st.presend_grants_w);
        ]);
  }

(* Registry entry: predictive lives outside lib/proto, so it registers
   exactly the way a third-party protocol would — extending the registry's
   handle type with its own constructor.  The runtime extracts the handle to
   drive schedule recording and presend phases. *)
type Ccdsm_proto.Registry.handle += Handle of t

let () =
  Ccdsm_proto.Registry.register ~name:"predictive"
    ~doc:"Stache augmented with compiler-directed schedule recording and presend"
    (fun opts machine ->
      let po = opts.Ccdsm_proto.Registry.predictive in
      let p =
        create ~coalesce:po.Ccdsm_proto.Registry.coalesce
          ~conflict_action:po.Ccdsm_proto.Registry.conflict_action machine
      in
      {
        Ccdsm_proto.Registry.coherence = coherence p;
        dir = Some (engine p).Ccdsm_proto.Engine.dir;
        mode = Ccdsm_proto.Sanitizer.Invalidate;
        handle = Handle p;
      })
