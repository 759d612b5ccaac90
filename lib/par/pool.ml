(* Fixed-size domain pool. One shared FIFO of closures, guarded by a
   mutex; workers sleep on [work] between batches, each submitting
   driver sleeps on its batch's [finished] condition while the batch's
   last in-flight jobs run. Determinism does not live here — jobs
   complete in arbitrary order — it lives in [run_thunks], which gives
   every job a dedicated result slot and lets [map]/[map_reduce] read
   the slots in index order.

   Completion is tracked per batch (not with a global pending counter)
   so that several driver domains may submit batches to one pool
   concurrently without their waits entangling.

   Each executor slot additionally keeps utilization counters (jobs
   run, queue-wait, busy time, per-domain minor words) for the
   resource-telemetry layer. They are updated under [lock] in the same
   critical section that decrements the batch counter, so a [stats]
   snapshot taken after a batch returns sees every job of that batch;
   the counters observe the jobs without feeding anything back into
   them, so they cannot perturb the deterministic-merge contract. *)

type batch = {
  mutable remaining : int;   (* queued + running jobs of this batch *)
  finished : Condition.t;    (* signalled when [remaining] reaches 0 *)
}

type job = { enqueued_ns : float; body : unit -> unit; batch : batch }

type slot_stats = {
  mutable s_jobs : int;
  mutable s_busy_ns : float;
  mutable s_wait_ns : float;
  mutable s_minor_words : float;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;      (* signalled when the queue gains work / on shutdown *)
  queue : job Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array;
  slots : slot_stats array;  (* slot 0 = caller, 1.. = workers *)
  jobs : int;
}

let max_jobs = 64

let clamp_jobs j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

let default_jobs () =
  let from_env =
    match Sys.getenv_opt "BA_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some j when j >= 1 -> Some j
        | Some _ | None -> None)
  in
  match from_env with
  | Some j -> clamp_jobs j
  | None -> clamp_jobs (Domain.recommended_domain_count ())

let now_ns () = Unix.gettimeofday () *. 1e9

(* Run one job body unlocked and return what the stats need: wall time
   inside the body and the minor words its execution allocated on this
   domain. Bodies never raise ([run_thunks] wraps them). *)
let execute body =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  body ();
  let busy = Float.max 0.0 (now_ns () -. t0) in
  let words = Float.max 0.0 (Gc.minor_words () -. w0) in
  (busy, words)

let charge slot ~wait ~busy ~words =
  slot.s_jobs <- slot.s_jobs + 1;
  slot.s_wait_ns <- slot.s_wait_ns +. wait;
  slot.s_busy_ns <- slot.s_busy_ns +. busy;
  slot.s_minor_words <- slot.s_minor_words +. words

(* Run queued jobs until the queue is empty; expects [t.lock] held on
   entry and leaves it held on exit. [slot] is the executor's stats
   slot (0 for a driver, worker index + 1 otherwise). A draining driver
   takes jobs in FIFO order regardless of batch, so it may execute jobs
   of a concurrently submitted batch — harmless, since job bodies never
   block on other jobs. *)
let drain_queue t slot =
  while not (Queue.is_empty t.queue) do
    let job = Queue.pop t.queue in
    let wait = Float.max 0.0 (now_ns () -. job.enqueued_ns) in
    Mutex.unlock t.lock;
    let busy, words = execute job.body in
    Mutex.lock t.lock;
    charge t.slots.(slot) ~wait ~busy ~words;
    job.batch.remaining <- job.batch.remaining - 1;
    if job.batch.remaining = 0 then Condition.broadcast job.batch.finished
  done

let worker t slot =
  Mutex.lock t.lock;
  let running = ref true in
  while !running do
    drain_queue t slot;
    if t.live then Condition.wait t.work t.lock else running := false
  done;
  Mutex.unlock t.lock

let create ~jobs =
  let jobs = clamp_jobs jobs in
  let t =
    { lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [||];
      slots =
        Array.init jobs (fun _ ->
            { s_jobs = 0; s_busy_ns = 0.0; s_wait_ns = 0.0;
              s_minor_words = 0.0 });
      jobs }
  in
  if jobs > 1 then
    t.workers <-
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let size t = t.jobs

type worker_stats = {
  worker : int;
  jobs_run : int;
  busy_ns : float;
  queue_wait_ns : float;
  minor_words : float;
}

let stats t =
  Mutex.lock t.lock;
  let snapshot =
    Array.to_list
      (Array.mapi
         (fun i s ->
           { worker = i;
             jobs_run = s.s_jobs;
             busy_ns = s.s_busy_ns;
             queue_wait_ns = s.s_wait_ns;
             minor_words = s.s_minor_words })
         t.slots)
  in
  Mutex.unlock t.lock;
  snapshot

let shutdown t =
  Mutex.lock t.lock;
  if t.live then begin
    t.live <- false;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end
  else Mutex.unlock t.lock

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Execute the thunks and return their outcomes in index order. The
   driver domain participates: it drains the queue alongside the
   workers, then waits for its batch's stragglers. Slot [i] is written
   by exactly one executor and read only after the batch counter has
   returned to 0 under [lock], which orders the write before the
   read. *)
let run_thunks pool thunks =
  let arr = Array.of_list thunks in
  let count = Array.length arr in
  let results = Array.make count None in
  let cell i thunk () =
    results.(i) <-
      Some
        (try Ok (thunk ())
         with e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  if Array.length pool.workers = 0 then
    Array.iteri
      (fun i thunk ->
        (* Never queued: zero wait, all work charged to the caller. *)
        let busy, words = execute (cell i thunk) in
        Mutex.lock pool.lock;
        charge pool.slots.(0) ~wait:0.0 ~busy ~words;
        Mutex.unlock pool.lock)
      arr
  else begin
    let batch = { remaining = count; finished = Condition.create () } in
    Mutex.lock pool.lock;
    let enqueued_ns = now_ns () in
    Array.iteri
      (fun i thunk ->
        Queue.push { enqueued_ns; body = cell i thunk; batch } pool.queue)
      arr;
    Condition.broadcast pool.work;
    drain_queue pool 0;
    while batch.remaining > 0 do
      Condition.wait batch.finished pool.lock
    done;
    Mutex.unlock pool.lock
  end;
  Array.map
    (function
      | Some outcome -> outcome
      | None -> invalid_arg "Bapar.Pool: missing result slot")
    results

let join_outcome = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map ~pool f xs =
  run_thunks pool (List.map (fun x () -> f x) xs)
  |> Array.to_list
  |> List.map join_outcome

let map_reduce ~pool ~merge ~init jobs =
  Array.fold_left
    (fun acc outcome -> merge acc (join_outcome outcome))
    init (run_thunks pool jobs)
