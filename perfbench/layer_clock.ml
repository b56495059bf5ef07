(* The traced run's layer clock: a Machine subscriber that attributes host
   time to layers by reading the monotonic clock at layer boundaries in the
   event stream.

   - [Fault] -> the completing [Access {faulted = true}]: the protocol fault
     handler (lib/proto, plus whatever the protocol calls from it).
   - [Phase_begin] -> the first body event ([Access] or [Fault]): the
     predictive protocol's presend (lib/core).
   - the last body event -> [Phase_end]: the schedule commit (lib/core;
     [Phase_end] is emitted after the protocol's phase_end hook returns).
   - the last body event or [Phase_end] -> [Barrier]: task-dispatch tail and
     barrier entry (lib/runtime).

   The clock is never read per local access: a plain [Access] only bumps a
   counter, and every 16th one refreshes the "last body event" mark, so a
   commit interval over-counts by at most 15 accesses' worth of app time per
   phase.  Under a protocol without lib/core (no [Runtime.predictive]) the
   presend and commit intervals are left to the app's self time: the phase
   hooks are no-ops there. *)

module Trace = Ccdsm_tempest.Trace

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  core : bool;
  mutable faults : int;
  mutable fault_ns : int;
  mutable presend_ns : int;
  mutable commit_ns : int;
  mutable barrier_ns : int;
  mutable fault_open : bool;
  mutable fault_t0 : int;
  mutable awaiting_body : bool;
  mutable phase_t0 : int;
  mutable mark : int;
  mutable unsampled : int;
}

let create ~core =
  let t0 = now () in
  {
    core;
    faults = 0;
    fault_ns = 0;
    presend_ns = 0;
    commit_ns = 0;
    barrier_ns = 0;
    fault_open = false;
    fault_t0 = 0;
    awaiting_body = false;
    phase_t0 = t0;
    mark = t0;
    unsampled = 0;
  }

let body_at t n =
  if t.awaiting_body then begin
    if t.core then t.presend_ns <- t.presend_ns + (n - t.phase_t0);
    t.awaiting_body <- false
  end;
  t.mark <- n;
  t.unsampled <- 0

let on_event t = function
  | Trace.Access { faulted; _ } ->
      if faulted && t.fault_open then begin
        let n = now () in
        t.fault_ns <- t.fault_ns + (n - t.fault_t0);
        t.fault_open <- false;
        body_at t n
      end
      else if t.awaiting_body then body_at t (now ())
      else begin
        t.unsampled <- t.unsampled + 1;
        if t.unsampled land 15 = 0 then t.mark <- now ()
      end
  | Trace.Fault _ ->
      t.faults <- t.faults + 1;
      if not t.fault_open then begin
        let n = now () in
        t.fault_open <- true;
        t.fault_t0 <- n;
        body_at t n
      end
  | Trace.Phase_begin _ ->
      let n = now () in
      t.phase_t0 <- n;
      t.awaiting_body <- true;
      t.mark <- n
  | Trace.Phase_end _ ->
      let n = now () in
      (if t.awaiting_body then begin
         if t.core then t.presend_ns <- t.presend_ns + (n - t.phase_t0);
         t.awaiting_body <- false
       end
       else if t.core then t.commit_ns <- t.commit_ns + (n - t.mark));
      t.mark <- n
  | Trace.Barrier _ ->
      let n = now () in
      if t.awaiting_body then body_at t n else t.barrier_ns <- t.barrier_ns + (n - t.mark);
      t.mark <- n
  | _ -> ()
