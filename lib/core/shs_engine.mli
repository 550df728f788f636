(** The session runtime: multiplex N independent GCD handshake sessions
    over one deterministic scheduler.

    Every session runs here: [Gcd.Make.run_session] submits one session
    to a fresh engine (high water 1, no deadline, deliveries serviced on
    arrival), and the concurrent workloads submit thousands to one.
    Sessions are submitted as {!Gcd_types.driver} thunks (see
    [Gcd.Make.engine_driver]) and live in a sharded table keyed by an
    engine-assigned sid.  The engine provides admission control
    (arrivals past [high_water] are refused with the typed
    [Shs_error.Overloaded] rejection), bounded per-seat inboxes with
    backpressure, per-seat watchdog retransmission over bounded
    {!Retx} buffers, deadline-based load shedding to the §7
    indistinguishable abort, and hard poisoned-session isolation: an
    exception escaping one session's state machines aborts and reaps
    that session only.

    Everything runs on sim time off the callers' seeded DRBGs, so a
    whole multi-session run replays byte-identically, and — because
    faults, adversary taps and randomness are per-session — each
    session's outcome is invariant to the presence of unrelated
    sessions.

    Observability: [engine.admitted], [engine.rejected], [engine.shed],
    [engine.reaped], [engine.poisoned], [engine.backpressure_dropped]
    counters; [engine.inbox_depth] gauge; the [gcd.sessions.live] /
    [gcd.live.phase*] population gauges; [gcd.retransmissions] and, with
    events on, a [gcd.retransmit] instant per watchdog replay and one
    trace id per session. *)

type config = {
  high_water : int;  (** live-session cap; arrivals beyond are rejected *)
  inbox_capacity : int;  (** per-seat inbox bound *)
  service_time : float;
      (** sim-time to service one inbox message; [0.] services every
          delivery on arrival *)
  deadline : float;
      (** sim-time budget per session before shedding; [infinity] never
          sheds *)
  watchdog : Gcd_types.watchdog option;  (** default per-seat watchdog *)
  shards : int;  (** session-table shard count *)
}

val default_config : config

type disposition =
  | Completed  (** every seat reached a terminal outcome on its own *)
  | Shed  (** force-aborted by the deadline reaper *)
  | Poisoned  (** isolated after an escaped exception *)
  | Stalled
      (** still live when the scheduler ran dry — only possible with no
          watchdog and an infinite deadline; seats that never terminated
          report [None] *)

val string_of_disposition : disposition -> string

type report = {
  r_sid : int;
  r_admitted : float;  (** sim time of admission *)
  r_finished : float;  (** sim time of reaping *)
  r_disposition : disposition;
  r_outcomes : Gcd_types.outcome option array;
  r_stats : Engine.stats;
      (** the session's network accounting, stragglers delivered after
          reaping included *)
  r_error : string option;  (** the escaped exception, for [Poisoned] *)
  r_exn : exn option;  (** the same exception, for re-raising *)
}

type submit_result = Admitted of int  (** the assigned sid *) | Rejected

type t

val create : ?config:config -> unit -> t
(** A fresh engine with its own scheduler.  With events enabled it
    installs the scheduler's clock as the event clock.
    @raise Invalid_argument on a nonsensical config or watchdog policy
    (see {!Gcd_types.check_watchdog}). *)

val sim : t -> Sim.t
(** The shared scheduler — schedule arrival events against it, then
    {!run}. *)

val submit :
  t ->
  ?faults:Faults.t ->
  ?adversary:Engine.adversary ->
  ?latency:(src:int -> dst:int -> float) ->
  ?watchdog:Gcd_types.watchdog ->
  (unit -> Gcd_types.driver) ->
  submit_result
(** Admit a session at the current sim time, or refuse it at the
    high-water mark ([Rejected]; the thunk is not called, so refused
    arrivals cost nothing and emit nothing).  [faults], [adversary] and
    [latency] scope fault injection and the mutation adversary to this
    session alone; [watchdog] overrides the engine default for this
    session.
    @raise Invalid_argument on a bad [watchdog] policy. *)

val run : t -> unit
(** Drive the shared scheduler to quiescence; then reap every session
    still live as [Stalled].  Afterwards every admitted session has a
    report. *)

val live : t -> int
(** Sessions currently admitted and not yet reaped. *)

val rejected : t -> int
(** Arrivals refused by admission control so far. *)

val reports : t -> report list
(** Terminal sessions in reaping order (oldest first). *)
