(** The one failure record (DESIGN.md S40).

    Every judgment fails the same way: a run has an underlay log with no
    related overlay log.  The run is one schedule for Thm 2.2, the
    linking theorems and crash refinement, and one environment context
    for Def. 2.1, the Fig. 9 [Fun]/[Wk] rules and translation
    validation.  Failures are built on the failure path only. *)

type t = {
  f_edge : string;
      (** the failing edge, [""] until [Ccal_verify.Edges.run] fills it in *)
  f_sched : string;
      (** the run: a {!Sched.name} or an {!Env_context.t}'s name, to be
          found by name in the checker's own suite; [""] when there is no
          run (a structural failure) *)
  f_index : int;
      (** events played before the failure: the {!Log.length} of [f_upper]
          when the overlay could not follow, of [f_lower] when the
          underlay run itself failed *)
  f_reason : string;
  f_lower : Log.t;  (** the underlay log at the failure *)
  f_upper : Log.t;  (** the overlay log reconstructed so far *)
  f_masks : (int * int) option;
      (** a crash-refinement failure's (keep, tear) masks; its [f_index] is
          the crash point *)
}

val underlay : sched:string -> Log.t -> string -> t
(** [underlay ~sched l reason]: run [sched] itself failed after [l]. *)

val overlay : sched:string -> lower:Log.t -> Log.t -> string -> t
(** [overlay ~sched ~lower u reason]: the overlay followed run [sched]'s
    underlay log [lower] only as far as [u]. *)

val no_run : string -> t
(** A structural failure: no run, empty logs, index 0. *)

val pp : Format.formatter -> t -> unit
(** One line, logs left out (the run and index reproduce them):
    ["failure: edge E, run S, event I: reason"], ["failure: edge E, no
    run: reason"], or ["crash-refinement failure: edge E, schedule S,
    crash point I (keep=0xK tear=0xT): reason"]; ["edge E, "] only once
    the edge is named. *)
