type t = {
  vms : Vm.t array;
  mutable cursor : int;
  cache : Exec_cache.t option;  (* shared: every VM boots identically *)
}

let create ?san ?features ?exec_cache ~version ~size () =
  if size <= 0 then invalid_arg "Pool.create: size must be positive";
  let vms = Array.init size (fun id -> Vm.create ?san ?features ~version ~id ()) in
  let cache =
    if Option.value exec_cache ~default:false then
      Some (Exec_cache.create ?san ?features ~version ())
    else None
  in
  { vms; cursor = 0; cache }

let size p = Array.length p.vms

let next p =
  let vm = p.vms.(p.cursor) in
  p.cursor <- (p.cursor + 1) mod Array.length p.vms;
  vm

let run p ?fault_call prog = Vm.run (next p) ?fault_call prog
let run_probe p prog = Vm.run_probe (next p) ?cache:p.cache prog
let cache_stats p = Option.map Exec_cache.stats p.cache
let cache p = p.cache

let fold f init p = Array.fold_left f init p.vms

let total_execs p = fold (fun acc vm -> acc + (Vm.stats vm).Vm.execs) 0 p
let total_crashes p = fold (fun acc vm -> acc + (Vm.stats vm).Vm.crashes) 0 p
let total_resets p = fold (fun acc vm -> acc + (Vm.stats vm).Vm.resets) 0 p
let iter f p = Array.iter f p.vms
