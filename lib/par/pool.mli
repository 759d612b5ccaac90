(** Fixed-size domain pool with a deterministic map-reduce.

    Monte-Carlo aggregates (E1–E11, the bench sweeps) are sums over
    independent seeded trials, so the trials can run on OCaml 5 domains
    in parallel — but the paper-fidelity story requires that turning
    parallelism on cannot change a single reported number. The contract
    here is therefore stronger than "a thread pool":

    - jobs are dispatched to workers in whatever order scheduling allows,
      but {!map} returns results in job-index order and {!map_reduce}
      merges them in job-index order — the output of both is a pure
      function of the job list, independent of pool size and of how the
      domains interleave;
    - a pool of size 1 spawns no domains at all and runs every job in
      the calling domain, so [~jobs:1] {e is} the sequential baseline,
      not a simulation of it.

    Each job must be self-contained (own RNG, own collectors, no writes
    to state shared with other jobs); the pool adds no synchronisation
    around job bodies beyond the dispatch itself. Stdlib-only:
    [Domain] + [Mutex]/[Condition], no [domainslib].

    Completion is tracked per submitted batch, so {e several driver
    domains may submit to one pool concurrently}. A submitting driver helps
    drain the shared queue while it waits, so it may execute jobs of
    another in-flight batch on its own stack; job bodies must therefore
    never block on the completion of other pool jobs.

    Pools are still not reentrant: calling {!map}/{!map_reduce}
    from inside a job of the {e same} pool is undefined (it can execute
    unrelated queued jobs on the caller's stack and deadlock on its own
    batch). Nesting across {e distinct} pools is fine. *)

type t

val create : jobs:int -> t
(** [create ~jobs] starts a pool of [jobs] executors: the calling domain
    plus [jobs - 1] worker domains ([jobs] is clamped to [1, 64]).
    Workers idle on a condition variable between batches. *)

val size : t -> int
(** Number of executors (including the calling domain). *)

val shutdown : t -> unit
(** Drain outstanding work, stop and join every worker domain.
    Idempotent. The pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down when
    [f] returns or raises. *)

val default_jobs : unit -> int
(** The [BA_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]; clamped to [1, 64].
    This is the default parallelism for every [--jobs] flag in the
    repository, and the env knob CI uses to exercise the parallel path. *)

val map : pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~pool f xs] applies [f] to every element on the pool and
    returns the results in input order. If any application raised, the
    exception of the smallest-index failing element is re-raised (with
    its backtrace) after all jobs have finished. *)

val map_reduce :
  pool:t -> merge:('acc -> 'b -> 'acc) -> init:'acc -> (unit -> 'b) list -> 'acc
(** [map_reduce ~pool ~merge ~init jobs] runs every thunk on the pool
    and folds the results {e in job-index order}:
    [merge (… (merge (merge init r0) r1) …) r(k-1)]. For a pure [merge]
    this equals [List.fold_left (fun acc j -> merge acc (j ())) init jobs]
    for every pool size — determinism under parallelism. Exceptions are
    re-raised as in {!map}. *)
