(** IPC subsystem: eventfd/timerfd descriptors and System-V shared
    memory, semaphores and message queues.

    SysV objects are identified by non-fd resource ids, giving the
    relation learner id-typed chains ([shmget -> shmat -> shmdt]) that
    never touch the descriptor table. No catalog bugs live here; the
    subsystem exists to widen the stateful surface (deferred shm
    destruction, semaphore counters, queue depth ladders). *)

type eventfd = { mutable counter : int64 }
type timerfd = { mutable armed : bool; mutable interval : int64 }

type shm = {
  shm_size : int64;
  mutable attached : int;
  mutable rmid_pending : bool;
  mutable shm_destroyed : bool;
}

type sem = { mutable values : int array; mutable sem_destroyed : bool }
type msgq = { mutable depth : int; mutable bytes : int; mutable q_destroyed : bool }

type tables = {
  shms : (int64, shm) Hashtbl.t;
  sems : (int64, sem) Hashtbl.t;
  msgs : (int64, msgq) Hashtbl.t;
}

type State.fd_kind += Eventfd of eventfd | Timerfd of timerfd

val sub : Subsystem.t
