module Machine = Ccdsm_tempest.Machine
module Json = Ccdsm_util.Json

type event =
  | Run of { node : int; write : bool; addr : int; stride : int; count : int }
  | Alloc of { words : int; home : int }
  | Heap_alloc of { node : int; words : int; spilled : bool }
  | Flush of { fphase : int }

type hist = { hnode : int; cold : int; buckets : int array }

type segment = {
  seq : int;
  phase : int;
  name : string;
  record : bool;
  presend : bool;
  reads : int;
  writes : int;
  a_faults : int;
  a_msgs : int;
  a_bytes : int;
  a_presends : int;
  a_bucket_us : float array;
  events : event array;
  rdist : hist array;
}

type t = {
  app : string;
  protocol : string;
  nodes : int;
  block_bytes : int;
  arena_blocks : int;
  out_msgs : int;
  out_bytes : int;
  out_bucket_us : float array;
  segments : segment array;
}

(* Machine time buckets, in [Machine.all_buckets] order. *)
let machine_buckets = Machine.all_buckets
let nmb = List.length machine_buckets

(* -- collection --------------------------------------------------------- *)

(* Finite reuse distances are log2-bucketed: bucket 0 holds distance 0,
   bucket i >= 1 holds [2^(i-1), 2^i).  24 buckets cover 8M distinct blocks,
   far beyond any simulated footprint. *)
let nbuckets = 24

let bucket_of d =
  if d = 0 then 0
  else begin
    let b = ref 0 in
    let d = ref d in
    while !d > 0 do
      incr b;
      d := !d lsr 1
    done;
    min !b (nbuckets - 1)
  end

(* Internal event stream: packed 5-int cells [kind; a; b; c; d] so the hot
   path only bumps an int array.  kind 0 = read run (node, addr, stride,
   count), 1 = write run, 2 = raw alloc (words, home), 3 = heap alloc
   (node, words, spilled). *)
type collector = {
  machine : Machine.t;
  mutable detach : unit -> unit;
  sample_presends : (unit -> int) option;
  capp : string;
  cprotocol : string;
  carena_blocks : int;
  nnodes : int;
  wpb : int;
  sd : Stack_dist.t array;  (* per node, over blocks, run-lifetime history *)
  mutable segs : segment list;  (* reversed *)
  mutable seq : int;
  mutable stack : (int * string * bool) list;  (* (id, name, scheduled) *)
  (* open segment *)
  mutable open_ : bool;
  mutable cur_phase : int;
  mutable cur_name : string;
  mutable cur_record : bool;
  mutable cur_presend : bool;
  mutable ev : int array;
  mutable ev_len : int;
  mutable reads : int;
  mutable writes : int;
  seen : (int, unit) Hashtbl.t;  (* (addr, node, op) first-touch filter *)
  (* open access run *)
  mutable run_open : bool;
  mutable r_node : int;
  mutable r_write : bool;
  mutable r_start : int;
  mutable r_stride : int;
  mutable r_count : int;
  mutable r_last : int;
  (* per-segment reuse-distance histograms *)
  h_cold : int array;  (* per node *)
  h_fin : int array;  (* node * nbuckets *)
  (* counter snapshots *)
  mutable base_faults : int;
  mutable base_msgs : int;
  mutable base_bytes : int;
  mutable base_presends : int;
  base_bucket : float array;  (* nmb bucket-time sums at segment open *)
  mutable closed_msgs : int;  (* snapshot at last segment close *)
  mutable closed_bytes : int;
  closed_bucket : float array;
  mutable out_msgs : int;
  mutable out_bytes : int;
  out_bucket : float array;
}

let counters c =
  let k = Machine.total_counters c.machine in
  let presends = match c.sample_presends with Some f -> f () | None -> 0 in
  (k.Machine.read_faults + k.Machine.write_faults, k.Machine.msgs, k.Machine.bytes, presends)

(* Whole-machine time-bucket sums (over nodes), the same left-to-right node
   order as the stats table, so segment deltas subtract exactly. *)
let bucket_sums c =
  let a = Array.make nmb 0.0 in
  List.iteri
    (fun i b ->
      let total = ref 0.0 in
      for node = 0 to c.nnodes - 1 do
        total := !total +. Machine.bucket_time c.machine ~node b
      done;
      a.(i) <- !total)
    machine_buckets;
  a

let ensure_ev c n =
  if c.ev_len + n > Array.length c.ev then begin
    let cap = ref (Array.length c.ev * 2) in
    while c.ev_len + n > !cap do
      cap := !cap * 2
    done;
    let ev = Array.make !cap 0 in
    Array.blit c.ev 0 ev 0 c.ev_len;
    c.ev <- ev
  end

let push_cell c k a b d e =
  ensure_ev c 5;
  let i = c.ev_len in
  c.ev.(i) <- k;
  c.ev.(i + 1) <- a;
  c.ev.(i + 2) <- b;
  c.ev.(i + 3) <- d;
  c.ev.(i + 4) <- e;
  c.ev_len <- i + 5

let flush_run c =
  if c.run_open then begin
    push_cell c (if c.r_write then 1 else 0) c.r_node c.r_start c.r_stride c.r_count;
    c.run_open <- false
  end

(* Innermost scheduled phase on the stack decides whether faults in this
   segment are recorded into a presend schedule, and into which one. *)
let recording_phase stack =
  let rec go = function
    | [] -> (-1, false)
    | (id, _, true) :: _ -> (id, true)
    | _ :: rest -> go rest
  in
  go stack

let open_segment c ~presend =
  let phase, record = recording_phase c.stack in
  let name = match c.stack with (_, n, _) :: _ -> n | [] -> "gap" in
  c.cur_phase <- phase;
  c.cur_name <- name;
  c.cur_record <- record;
  c.cur_presend <- presend;
  c.ev_len <- 0;
  c.reads <- 0;
  c.writes <- 0;
  Hashtbl.reset c.seen;
  c.run_open <- false;
  let faults, msgs, bytes, presends = counters c in
  (* Counter movement since the last close happened between segments
     (reductions, barriers): block-size-invariant background traffic. *)
  c.out_msgs <- c.out_msgs + (msgs - c.closed_msgs);
  c.out_bytes <- c.out_bytes + (bytes - c.closed_bytes);
  let bt = bucket_sums c in
  for i = 0 to nmb - 1 do
    c.out_bucket.(i) <- c.out_bucket.(i) +. (bt.(i) -. c.closed_bucket.(i))
  done;
  Array.blit bt 0 c.base_bucket 0 nmb;
  c.base_faults <- faults;
  c.base_msgs <- msgs;
  c.base_bytes <- bytes;
  c.base_presends <- presends;
  c.open_ <- true

let close_segment c =
  flush_run c;
  let faults, msgs, bytes, presends = counters c in
  let bt = bucket_sums c in
  let events =
    Array.init (c.ev_len / 5) (fun i ->
        let j = i * 5 in
        match c.ev.(j) with
        | 0 | 1 ->
            Run
              {
                node = c.ev.(j + 1);
                write = c.ev.(j) = 1;
                addr = c.ev.(j + 2);
                stride = c.ev.(j + 3);
                count = c.ev.(j + 4);
              }
        | 2 -> Alloc { words = c.ev.(j + 1); home = c.ev.(j + 2) }
        | 3 -> Heap_alloc { node = c.ev.(j + 1); words = c.ev.(j + 2); spilled = c.ev.(j + 3) <> 0 }
        | _ -> Flush { fphase = c.ev.(j + 1) })
  in
  let rdist = ref [] in
  for node = c.nnodes - 1 downto 0 do
    let nonzero = ref (c.h_cold.(node) > 0) in
    let hi = ref (-1) in
    for b = 0 to nbuckets - 1 do
      if c.h_fin.((node * nbuckets) + b) > 0 then begin
        nonzero := true;
        hi := b
      end
    done;
    if !nonzero then begin
      let buckets = Array.init (!hi + 1) (fun b -> c.h_fin.((node * nbuckets) + b)) in
      rdist := { hnode = node; cold = c.h_cold.(node); buckets } :: !rdist
    end
  done;
  Array.fill c.h_cold 0 c.nnodes 0;
  Array.fill c.h_fin 0 (c.nnodes * nbuckets) 0;
  let seg =
    {
      seq = c.seq;
      phase = c.cur_phase;
      name = c.cur_name;
      record = c.cur_record;
      presend = c.cur_presend;
      reads = c.reads;
      writes = c.writes;
      a_faults = faults - c.base_faults;
      a_msgs = msgs - c.base_msgs;
      a_bytes = bytes - c.base_bytes;
      a_presends = presends - c.base_presends;
      a_bucket_us = Array.init nmb (fun i -> bt.(i) -. c.base_bucket.(i));
      events;
      rdist = Array.of_list !rdist;
    }
  in
  c.seq <- c.seq + 1;
  c.segs <- seg :: c.segs;
  c.closed_msgs <- msgs;
  c.closed_bytes <- bytes;
  Array.blit bt 0 c.closed_bucket 0 nmb;
  c.open_ <- false

let on_access c ~node ~addr ~write =
  if not c.open_ then open_segment c ~presend:false;
  if write then c.writes <- c.writes + 1 else c.reads <- c.reads + 1;
  let d = Stack_dist.access c.sd.(node) (addr / c.wpb) in
  if d < 0 then c.h_cold.(node) <- c.h_cold.(node) + 1
  else c.h_fin.((node * nbuckets) + bucket_of d) <- c.h_fin.((node * nbuckets) + bucket_of d) + 1;
  (* First-touch filter: only the first (node, word, op) access of a segment
     can change coherence state, so only it enters the event stream. *)
  let op = if write then 1 else 0 in
  let key = (addr lsl 11) lor (node lsl 1) lor op in
  if not (Hashtbl.mem c.seen key) then begin
    Hashtbl.add c.seen key ();
    if c.run_open && c.r_node = node && c.r_write = write then begin
      if c.r_count = 1 then begin
        c.r_stride <- addr - c.r_last;
        c.r_count <- 2;
        c.r_last <- addr
      end
      else if addr = c.r_last + c.r_stride then begin
        c.r_count <- c.r_count + 1;
        c.r_last <- addr
      end
      else begin
        flush_run c;
        c.run_open <- true;
        c.r_node <- node;
        c.r_write <- write;
        c.r_start <- addr;
        c.r_stride <- 0;
        c.r_count <- 1;
        c.r_last <- addr
      end
    end
    else begin
      flush_run c;
      c.run_open <- true;
      c.r_node <- node;
      c.r_write <- write;
      c.r_start <- addr;
      c.r_stride <- 0;
      c.r_count <- 1;
      c.r_last <- addr
    end
  end

let on_alloc c ~words ~home =
  if not c.open_ then open_segment c ~presend:false;
  flush_run c;
  push_cell c 2 words home 0 0

let on_heap_alloc c ~node ~words ~spilled =
  if not c.open_ then open_segment c ~presend:false;
  flush_run c;
  (* A spilled heap allocation was immediately preceded by the raw
     Machine.alloc it triggered (the large object itself, or a fresh bump
     arena); the logical heap event subsumes it, so rewrite that cell in
     place — the model re-derives the raw allocation by mirroring the
     heap's bump logic in each block geometry. *)
  if spilled && c.ev_len >= 5 && c.ev.(c.ev_len - 5) = 2 then c.ev_len <- c.ev_len - 5;
  push_cell c 3 node words (if spilled then 1 else 0) 0

let on_flush c ~phase =
  if not c.open_ then open_segment c ~presend:false;
  flush_run c;
  push_cell c 4 phase 0 0 0

let on_phase c ~enter ~id ~name ~scheduled =
  if enter then begin
    if c.open_ then close_segment c;
    c.stack <- (id, name, scheduled) :: c.stack;
    open_segment c ~presend:scheduled
  end
  else begin
    if c.open_ then close_segment c;
    (match c.stack with [] -> () | _ :: rest -> c.stack <- rest);
    if c.stack <> [] then open_segment c ~presend:false
  end

let attach ?sample_presends ~app ~protocol ~arena_blocks machine =
  let nnodes = Machine.num_nodes machine in
  let c =
    {
      machine;
      detach = ignore;
      sample_presends;
      capp = app;
      cprotocol = protocol;
      carena_blocks = arena_blocks;
      nnodes;
      wpb = Machine.words_per_block machine;
      sd = Array.init nnodes (fun _ -> Stack_dist.create ());
      segs = [];
      seq = 0;
      stack = [];
      open_ = false;
      cur_phase = -1;
      cur_name = "gap";
      cur_record = false;
      cur_presend = false;
      ev = Array.make 1024 0;
      ev_len = 0;
      reads = 0;
      writes = 0;
      seen = Hashtbl.create 4096;
      run_open = false;
      r_node = 0;
      r_write = false;
      r_start = 0;
      r_stride = 0;
      r_count = 0;
      r_last = 0;
      h_cold = Array.make nnodes 0;
      h_fin = Array.make (nnodes * nbuckets) 0;
      base_faults = 0;
      base_msgs = 0;
      base_bytes = 0;
      base_presends = 0;
      base_bucket = Array.make nmb 0.0;
      closed_msgs = 0;
      closed_bytes = 0;
      closed_bucket = Array.make nmb 0.0;
      out_msgs = 0;
      out_bytes = 0;
      out_bucket = Array.make nmb 0.0;
    }
  in
  let _, msgs, bytes, _ = counters c in
  c.closed_msgs <- msgs;
  c.closed_bytes <- bytes;
  Array.blit (bucket_sums c) 0 c.closed_bucket 0 nmb;
  c.detach <-
    Machine.observe machine
      {
        Machine.silent with
        access = on_access c;
        alloc = on_alloc c;
        heap_alloc = on_heap_alloc c;
        phase = on_phase c;
        flush = on_flush c;
      };
  c

let finish c =
  c.detach ();
  if c.open_ then close_segment c;
  let _, msgs, bytes, _ = counters c in
  c.out_msgs <- c.out_msgs + (msgs - c.closed_msgs);
  c.out_bytes <- c.out_bytes + (bytes - c.closed_bytes);
  let bt = bucket_sums c in
  for i = 0 to nmb - 1 do
    c.out_bucket.(i) <- c.out_bucket.(i) +. (bt.(i) -. c.closed_bucket.(i))
  done;
  {
    app = c.capp;
    protocol = c.cprotocol;
    nodes = c.nnodes;
    block_bytes = Machine.block_bytes c.machine;
    arena_blocks = c.carena_blocks;
    out_msgs = c.out_msgs;
    out_bytes = c.out_bytes;
    out_bucket_us = Array.copy c.out_bucket;
    segments = Array.of_list (List.rev c.segs);
  }

let collect ?sample_presends ~app ~protocol ~arena_blocks machine f =
  let c = attach ?sample_presends ~app ~protocol ~arena_blocks machine in
  match f () with
  | v -> (finish c, v)
  | exception e ->
      ignore (finish c);
      raise e

(* -- canonical JSON ------------------------------------------------------ *)

(* Round-trip-exact float literal: the shortest of %.12g / %.17g that parses
   back to the same value, so saved profiles reload bit-for-bit. *)
let float_str v =
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let bucket_us_json b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (float_str v))
    a;
  Buffer.add_char b ']'

let to_json p =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"version\":2,\"app\":";
  Buffer.add_string b (Json.quote p.app);
  Buffer.add_string b ",\"protocol\":";
  Buffer.add_string b (Json.quote p.protocol);
  Printf.bprintf b ",\"nodes\":%d,\"block_bytes\":%d,\"arena_blocks\":%d" p.nodes p.block_bytes
    p.arena_blocks;
  Printf.bprintf b ",\"outside\":{\"msgs\":%d,\"bytes\":%d,\"bucket_us\":" p.out_msgs p.out_bytes;
  bucket_us_json b p.out_bucket_us;
  Buffer.add_char b '}';
  Buffer.add_string b ",\"segments\":[";
  Array.iteri
    (fun i (s : segment) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n";
      Printf.bprintf b "{\"seq\":%d,\"phase\":%d,\"name\":" s.seq s.phase;
      Buffer.add_string b (Json.quote s.name);
      Printf.bprintf b ",\"record\":%b,\"presend\":%b" s.record s.presend;
      Printf.bprintf b ",\"reads\":%d,\"writes\":%d" s.reads s.writes;
      Printf.bprintf b ",\"faults\":%d,\"msgs\":%d,\"bytes\":%d,\"presends\":%d" s.a_faults s.a_msgs
        s.a_bytes s.a_presends;
      Buffer.add_string b ",\"bucket_us\":";
      bucket_us_json b s.a_bucket_us;
      Buffer.add_string b ",\"ev\":[";
      Array.iteri
        (fun j e ->
          if j > 0 then Buffer.add_char b ',';
          match e with
          | Run { node; write; addr; stride; count } ->
              Printf.bprintf b "%d,%d,%d,%d,%d" (if write then 1 else 0) node addr stride count
          | Alloc { words; home } -> Printf.bprintf b "2,%d,%d,0,0" words home
          | Heap_alloc { node; words; spilled } ->
              Printf.bprintf b "3,%d,%d,%d,0" node words (if spilled then 1 else 0)
          | Flush { fphase } -> Printf.bprintf b "4,%d,0,0,0" fphase)
        s.events;
      Buffer.add_string b "],\"rdist\":[";
      Array.iteri
        (fun j h ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "[%d,%d" h.hnode h.cold;
          Array.iter (fun n -> Printf.bprintf b ",%d" n) h.buckets;
          Buffer.add_char b ']')
        s.rdist;
      Buffer.add_string b "]}")
    p.segments;
  Buffer.add_string b "]}\n";
  Buffer.contents b

exception Bad of string

(* A required member, converted; a missing or mistyped one names itself. *)
let get conv name j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing or mistyped field %S" name))

let decode_buckets j =
  let a = get (Json.to_array Json.to_float) "bucket_us" j in
  if Array.length a <> nmb then
    raise (Bad (Printf.sprintf "field \"bucket_us\": expected %d entries" nmb));
  a

let decode_events a =
  let n = Array.length a in
  if n mod 5 <> 0 then raise (Bad "field \"ev\": length not a multiple of 5");
  Array.init (n / 5) (fun i ->
      let j = i * 5 in
      match a.(j) with
      | 0 | 1 ->
          Run { node = a.(j + 1); write = a.(j) = 1; addr = a.(j + 2); stride = a.(j + 3); count = a.(j + 4) }
      | 2 -> Alloc { words = a.(j + 1); home = a.(j + 2) }
      | 3 -> Heap_alloc { node = a.(j + 1); words = a.(j + 2); spilled = a.(j + 3) <> 0 }
      | 4 -> Flush { fphase = a.(j + 1) }
      | k -> raise (Bad (Printf.sprintf "field \"ev\": unknown event kind %d" k)))

let decode_hist j =
  match Json.to_array Json.to_int j with
  | Some a when Array.length a >= 2 ->
      { hnode = a.(0); cold = a.(1); buckets = Array.sub a 2 (Array.length a - 2) }
  | _ -> raise (Bad "field \"rdist\": expected [node, cold, buckets...]")

let decode_segment j =
  let int name = get Json.to_int name j and bool name = get Json.to_bool name j in
  {
    seq = int "seq";
    phase = int "phase";
    name = get Json.to_string "name" j;
    record = bool "record";
    presend = bool "presend";
    reads = int "reads";
    writes = int "writes";
    a_faults = int "faults";
    a_msgs = int "msgs";
    a_bytes = int "bytes";
    a_presends = int "presends";
    a_bucket_us = decode_buckets j;
    events = decode_events (get (Json.to_array Json.to_int) "ev" j);
    rdist = Array.map decode_hist (get (Json.to_array Option.some) "rdist" j);
  }

(* The model sizes per-node tables by [nodes], indexes them by event nodes
   and homes, and lays runs out in the profiled geometry, so a profile
   breaking any of these rules is rejected here instead of crashing it.
   Runs must lie inside the words allocated before them: a real profile
   never touches memory before its allocation. *)
let validate (p : t) =
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  if p.nodes < 1 || p.nodes > Ccdsm_util.Nodeset.max_nodes then
    bad "field \"nodes\": %d is outside [1, %d]" p.nodes Ccdsm_util.Nodeset.max_nodes;
  if p.block_bytes < 8 || p.block_bytes land (p.block_bytes - 1) <> 0 then
    bad "field \"block_bytes\": %d is not a power of two >= 8" p.block_bytes;
  let wpb = p.block_bytes / 8 in
  let allocated = ref 0 in
  let alloc seq w =
    if w < 0 then bad "segment %d: allocation of %d words" seq w;
    allocated := !allocated + ((w + wpb - 1) / wpb * wpb)
  in
  Array.iter
    (fun (sg : segment) ->
      let node what n =
        if n < 0 || n >= p.nodes then
          bad "segment %d: %s %d is not below %d nodes" sg.seq what n p.nodes
      in
      Array.iter
        (function
          | Alloc { words; home } ->
              node "alloc home" home;
              alloc sg.seq words
          | Heap_alloc { node = n; words; spilled } ->
              node "heap alloc node" n;
              if spilled then alloc sg.seq (max words (p.arena_blocks * wpb))
          | Run { node = n; addr; stride; count; _ } ->
              node "run node" n;
              (* All [count] words [addr + k * stride] within
                 [0, allocated), without overflowing. *)
              let inside =
                count >= 1 && addr >= 0 && addr < !allocated
                && (count = 1 || stride = 0
                   || (if stride > 0 then (!allocated - 1 - addr) / stride else addr / -stride)
                      >= count - 1)
              in
              if not inside then
                bad "segment %d: run of %d words at %d (stride %d) outside the %d words allocated"
                  sg.seq count addr stride !allocated
          | Flush _ -> ())
        sg.events)
    p.segments;
  p

let of_json s =
  match
    let j = match Json.parse s with Ok j -> j | Error msg -> raise (Bad msg) in
    let version = get Json.to_int "version" j in
    if version <> 2 then raise (Bad (Printf.sprintf "unsupported profile version %d" version));
    let outside = get Option.some "outside" j in
    {
      app = get Json.to_string "app" j;
      protocol = get Json.to_string "protocol" j;
      nodes = get Json.to_int "nodes" j;
      block_bytes = get Json.to_int "block_bytes" j;
      arena_blocks = get Json.to_int "arena_blocks" j;
      out_msgs = get Json.to_int "msgs" outside;
      out_bytes = get Json.to_int "bytes" outside;
      out_bucket_us = decode_buckets outside;
      segments = Array.map decode_segment (get (Json.to_array Option.some) "segments" j);
    }
    |> validate
  with
  | p -> Ok p
  | exception Bad msg -> Error ("invalid profile: " ^ msg)

let save path p =
  let oc = open_out path in
  output_string oc (to_json p);
  close_out oc

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      if String.trim s = "" then Error (path ^ ": empty profile file") else of_json s
