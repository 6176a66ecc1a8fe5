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

let blk = Coverage.region ~name:"ipc" ~size:512

(* One class over the shm/sem/msg id tables (ipc_ids.rwsem writ
   large) and the eventfd/timerfd per-instance payloads. *)
let ipc_ids =
  Lock.register ~rank:50 ~guards:[ "ipc"; "fd:eventfd"; "fd:timerfd" ] "ipc_ids"
let c ctx o = Ctx.cover ctx (blk + o)

(* Effect slots: the SysV id tables plus the eventfd/timerfd payloads.
   eventfd/timerfd_create allocations are exempt (fresh payload). *)
let s_ipc = Effect.slot "ipc"
let s_fd_eventfd = Effect.slot "fd:eventfd"
let s_fd_timerfd = Effect.slot "fd:timerfd"

let tables_slot =
  State.slot ~name:"ipc"
    ~create:(fun () ->
      { shms = Hashtbl.create 8; sems = Hashtbl.create 8; msgs = Hashtbl.create 8 })
    ~copy:(fun t ->
      {
        shms = State.copy_tbl (fun (s : shm) -> { s with attached = s.attached }) t.shms;
        sems =
          State.copy_tbl
            (fun (s : sem) ->
              { values = Array.copy s.values; sem_destroyed = s.sem_destroyed })
            t.sems;
        msgs = State.copy_tbl (fun (m : msgq) -> { m with depth = m.depth }) t.msgs;
      })

let ipc_of st =
  State.record_read st s_ipc;
  State.get st tables_slot

let fresh_id st = Int64.of_int (State.incr_counter st "ipc.next_id")

(* ---- eventfd / timerfd ---- *)

let h_eventfd ctx args =
  let initval = Arg.as_int (Arg.nth args 0) in
  c ctx 0;
  if Int64.compare initval 0L < 0 then begin
    c ctx 1;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 2;
    let entry = State.alloc_fd ctx.Ctx.st (Eventfd { counter = initval }) in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let h_timerfd_create ctx args =
  let clockid = Arg.as_int (Arg.nth args 0) in
  c ctx 4;
  if Int64.compare clockid 0L < 0 || Int64.compare clockid 11L > 0 then begin
    c ctx 5;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 6;
    let entry = State.alloc_fd ctx.Ctx.st (Timerfd { armed = false; interval = 0L }) in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let h_timerfd_settime ctx args =
  c ctx 8;
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Timerfd tm; _ } ->
    State.record_read ctx.Ctx.st s_fd_timerfd;
    let interval = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
    if Int64.compare interval 0L < 0 then begin
      c ctx 9;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 10;
      State.record_write ctx.Ctx.st s_fd_timerfd;
      tm.armed <- Int64.compare interval 0L > 0;
      tm.interval <- interval;
      if tm.armed then c ctx 11 else c ctx 12;
      Ctx.ok0
    end
  | Some _ ->
    c ctx 13;
    Ctx.err Errno.EINVAL
  | None ->
    c ctx 14;
    Ctx.err Errno.EBADF

let event_write ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Eventfd ev ->
    let n = Arg.buf_length (Arg.nth args 1) in
    c ctx 16;
    if n < 8 then begin
      c ctx 17;
      Ctx.err Errno.EINVAL
    end
    else begin
      c ctx 18;
      State.record_write ctx.Ctx.st s_fd_eventfd;
      ev.counter <- Int64.add ev.counter 1L;
      c ctx (32 + Int64.to_int (Int64.min ev.counter 15L));
      Ctx.ok 8L
    end
  | _ -> Ctx.err Errno.EINVAL

let event_read ctx (entry : State.fd_entry) args =
  match entry.kind with
  | Eventfd ev ->
    let count = Arg.as_int (Arg.nth args 2) in
    c ctx 20;
    State.record_read ctx.Ctx.st s_fd_eventfd;
    if Int64.compare count 8L < 0 then begin
      c ctx 21;
      Ctx.err Errno.EINVAL
    end
    else if Int64.compare ev.counter 0L = 0 then begin
      c ctx 22;
      Ctx.err Errno.EAGAIN
    end
    else begin
      c ctx 23;
      State.record_write ctx.Ctx.st s_fd_eventfd;
      ev.counter <- 0L;
      Ctx.ok 8L
    end
  | _ -> Ctx.err Errno.EINVAL

let timer_read ctx (entry : State.fd_entry) _args =
  match entry.kind with
  | Timerfd tm ->
    c ctx 25;
    State.record_read ctx.Ctx.st s_fd_timerfd;
    if not tm.armed then begin
      c ctx 26;
      Ctx.err Errno.EAGAIN
    end
    else begin
      c ctx 27;
      Ctx.ok 8L
    end
  | _ -> Ctx.err Errno.EINVAL

(* ---- SysV shared memory ---- *)

let h_shmget ctx args =
  let size = Arg.as_int (Arg.nth args 1) in
  let ipc = ipc_of ctx.Ctx.st in
  c ctx 30;
  if Int64.compare size 0L <= 0 then begin
    c ctx 31;
    Ctx.err Errno.EINVAL
  end
  else if Hashtbl.length ipc.shms >= 16 then begin
    c ctx 32;
    Ctx.err Errno.ENOSPC
  end
  else begin
    c ctx 33;
    if Int64.compare size 0x100000L > 0 then c ctx 34;
    let id = fresh_id ctx.Ctx.st in
    State.record_write ctx.Ctx.st s_ipc;
    Hashtbl.replace ipc.shms id
      { shm_size = size; attached = 0; rmid_pending = false; shm_destroyed = false };
    Ctx.ok id
  end

let with_shm ctx args k =
  let ipc = ipc_of ctx.Ctx.st in
  let id = Arg.as_int (Arg.nth args 0) in
  match Hashtbl.find_opt ipc.shms id with
  | Some s when not s.shm_destroyed -> k s
  | Some _ | None ->
    c ctx 36;
    Ctx.err Errno.EINVAL

let h_shmat ctx args =
  c ctx 38;
  with_shm ctx args (fun s ->
      if s.rmid_pending then begin
        (* Attaching to a segment already marked for destruction: a
           distinct (legal but deep) path. *)
        c ctx 39;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 40;
        State.record_write ctx.Ctx.st s_ipc;
        s.attached <- s.attached + 1;
        c ctx (48 + min 7 s.attached);
        Ctx.ok 0x7f0001000000L
      end)

let h_shmdt ctx args =
  c ctx 56;
  with_shm ctx args (fun s ->
      if s.attached = 0 then begin
        c ctx 57;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 58;
        State.record_write ctx.Ctx.st s_ipc;
        s.attached <- s.attached - 1;
        (* Deferred destruction completes on the last detach. *)
        if s.rmid_pending && s.attached = 0 then begin
          c ctx 59;
          s.shm_destroyed <- true
        end;
        Ctx.ok0
      end)

let h_shm_rmid ctx args =
  c ctx 61;
  with_shm ctx args (fun s ->
      State.record_write ctx.Ctx.st s_ipc;
      if s.attached > 0 then begin
        c ctx 62;
        s.rmid_pending <- true;
        Ctx.ok0
      end
      else begin
        c ctx 63;
        s.shm_destroyed <- true;
        Ctx.ok0
      end)

(* ---- SysV semaphores ---- *)

let h_semget ctx args =
  let nsems = Int64.to_int (Arg.as_int (Arg.nth args 1)) in
  let ipc = ipc_of ctx.Ctx.st in
  c ctx 66;
  if nsems <= 0 || nsems > 32 then begin
    c ctx 67;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 68;
    let id = fresh_id ctx.Ctx.st in
    State.record_write ctx.Ctx.st s_ipc;
    Hashtbl.replace ipc.sems id
      { values = Array.make nsems 0; sem_destroyed = false };
    Ctx.ok id
  end

let with_sem ctx args k =
  let ipc = ipc_of ctx.Ctx.st in
  let id = Arg.as_int (Arg.nth args 0) in
  match Hashtbl.find_opt ipc.sems id with
  | Some s when not s.sem_destroyed -> k s
  | Some _ | None ->
    c ctx 70;
    Ctx.err Errno.EINVAL

let h_semop ctx args =
  c ctx 72;
  with_sem ctx args (fun s ->
      let op = Arg.nth args 1 in
      let idx = Int64.to_int (Arg.as_int (Arg.field op 0)) in
      let delta = Int64.to_int (Arg.as_int (Arg.field op 1)) in
      if idx < 0 || idx >= Array.length s.values then begin
        c ctx 73;
        Ctx.err Errno.EINVAL
      end
      else begin
        let v = s.values.(idx) + delta in
        if v < 0 then begin
          (* Would block: the simulator fails instead of sleeping. *)
          c ctx 74;
          Ctx.err Errno.EAGAIN
        end
        else begin
          c ctx 75;
          State.record_write ctx.Ctx.st s_ipc;
          s.values.(idx) <- v;
          c ctx (80 + min 7 v);
          Ctx.ok0
        end
      end)

let h_sem_rmid ctx args =
  c ctx 88;
  with_sem ctx args (fun s ->
      c ctx 89;
      State.record_write ctx.Ctx.st s_ipc;
      s.sem_destroyed <- true;
      Ctx.ok0)

(* ---- SysV message queues ---- *)

let h_msgget ctx _args =
  let ipc = ipc_of ctx.Ctx.st in
  c ctx 92;
  let id = fresh_id ctx.Ctx.st in
  State.record_write ctx.Ctx.st s_ipc;
  Hashtbl.replace ipc.msgs id { depth = 0; bytes = 0; q_destroyed = false };
  Ctx.ok id

let with_msgq ctx args k =
  let ipc = ipc_of ctx.Ctx.st in
  let id = Arg.as_int (Arg.nth args 0) in
  match Hashtbl.find_opt ipc.msgs id with
  | Some q when not q.q_destroyed -> k q
  | Some _ | None ->
    c ctx 94;
    Ctx.err Errno.EINVAL

let h_msgsnd ctx args =
  c ctx 96;
  with_msgq ctx args (fun q ->
      let n = Arg.buf_length (Arg.nth args 1) in
      if n = 0 then begin
        c ctx 97;
        Ctx.err Errno.EINVAL
      end
      else if q.depth >= 16 || q.bytes + n > 65536 then begin
        c ctx 98;
        Ctx.err Errno.EAGAIN
      end
      else begin
        c ctx 99;
        State.record_write ctx.Ctx.st s_ipc;
        q.depth <- q.depth + 1;
        q.bytes <- q.bytes + n;
        c ctx (104 + min 7 q.depth);
        Ctx.ok0
      end)

let h_msgrcv ctx args =
  c ctx 112;
  with_msgq ctx args (fun q ->
      if q.depth = 0 then begin
        c ctx 113;
        Ctx.err Errno.EAGAIN
      end
      else begin
        c ctx 114;
        State.record_write ctx.Ctx.st s_ipc;
        q.depth <- q.depth - 1;
        Ctx.ok 1L
      end)

let h_msg_rmid ctx args =
  c ctx 116;
  with_msgq ctx args (fun q ->
      c ctx 117;
      if q.depth > 0 then c ctx 118;
      State.record_write ctx.Ctx.st s_ipc;
      q.q_destroyed <- true;
      Ctx.ok0)

let descriptions =
  {|
# IPC: eventfd, timerfd, SysV shm/sem/msg.
resource fd_event[fd]
resource fd_timer[fd]
resource shm_id[int64]: -1
resource sem_id[int64]: -1
resource msg_id[int64]: -1
struct itimerspec_sim { interval int64, value int64 }
struct sembuf_sim { sem_num int16, sem_op int16, sem_flg int16 }
eventfd(initval int32) fd_event
timerfd_create(clockid int32[0:11], tflags const[0]) fd_timer
timerfd_settime(fd fd_timer, tflags const[0], spec ptr[in, itimerspec_sim])
shmget(key intptr, size intptr, shmflg int32) shm_id
shmat(id shm_id, addr vma, shmflg int32)
shmdt(id shm_id)
shmctl$IPC_RMID(id shm_id, cmd const[0])
semget(key intptr, nsems int32[0:32], semflg int32) sem_id
semop(id sem_id, ops ptr[in, sembuf_sim], nops const[1])
semctl$IPC_RMID(id sem_id, semnum const[0], cmd const[0])
msgget(key intptr, msgflg int32) msg_id
msgsnd(id msg_id, buf buffer[in], msgsz len[buf], msgflg int32)
msgrcv(id msg_id, buf buffer[out], msgsz len[buf], msgtyp intptr, msgflg int32)
msgctl$IPC_RMID(id msg_id, cmd const[0])
|}

let applies_event = function Eventfd _ -> true | _ -> false
let applies_timer = function Timerfd _ -> true | _ -> false

let copy_kind : State.fd_kind -> State.fd_kind option = function
  | Eventfd e -> Some (Eventfd { counter = e.counter })
  | Timerfd t -> Some (Timerfd { t with armed = t.armed })
  | _ -> None

let sub =
  let l = Subsystem.locked [ ipc_ids ] in
  let w = Lock.scoped [ "ipc_ids" ] ~touches:[ "ipc" ] in
  let wt = Lock.scoped [ "ipc_ids" ] ~touches:[ "fd:timerfd" ] in
  Subsystem.make ~name:"ipc" ~descriptions ~copy_kind
    ~handlers:
      [
        ("eventfd", h_eventfd);
        ("timerfd_create", h_timerfd_create);
        ("timerfd_settime", l h_timerfd_settime);
        ("shmget", l h_shmget);
        ("shmat", l h_shmat);
        ("shmdt", l h_shmdt);
        ("shmctl$IPC_RMID", l h_shm_rmid);
        ("semget", l h_semget);
        ("semop", l h_semop);
        ("semctl$IPC_RMID", l h_sem_rmid);
        ("msgget", l h_msgget);
        ("msgsnd", l h_msgsnd);
        ("msgrcv", l h_msgrcv);
        ("msgctl$IPC_RMID", l h_msg_rmid);
      ]
    ~locks:
      [
        ("timerfd_settime", wt);
        ("shmget", w);
        ("shmat", w);
        ("shmdt", w);
        ("shmctl$IPC_RMID", w);
        ("semget", w);
        ("semop", w);
        ("semctl$IPC_RMID", w);
        ("msgget", w);
        ("msgsnd", w);
        ("msgrcv", w);
        ("msgctl$IPC_RMID", w);
      ]
    ~effects:
      (let e = Effect.spec ~writes:[ "ipc" ] () in
       [
         ("timerfd_settime", Effect.spec ~writes:[ "fd:timerfd" ] ());
         ("shmget", e);
         ("shmat", e);
         ("shmdt", e);
         ("shmctl$IPC_RMID", e);
         ("semget", e);
         ("semop", e);
         ("semctl$IPC_RMID", e);
         ("msgget", e);
         ("msgsnd", e);
         ("msgrcv", e);
         ("msgctl$IPC_RMID", e);
       ])
    ~file_ops:
      [
        { Subsystem.op_name = "write"; applies = applies_event; run = event_write };
        { Subsystem.op_name = "read"; applies = applies_event; run = event_read };
        { Subsystem.op_name = "read"; applies = applies_timer; run = timer_read };
      ]
    ()
