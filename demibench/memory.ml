(* Wrapper over the memory library for the reused raw-stack world: heap
   copies and frees are timed as ledger sections, and the heaps a round
   creates are recorded for their counters and sanitizer reports. *)

module Orig = Demibench_orig.Memory
include Orig

module Heap = struct
  include Orig.Heap

  let created : Orig.Heap.t list ref = ref []

  let create ?label ?headroom ?sanitize ~mode () =
    let h = Orig.Heap.create ?label ?headroom ?sanitize ~mode () in
    created := h :: !created;
    h

  let alloc_of_string ?site h s =
    let p = Ledger.enter Ledger.heap_copy in
    let b = Orig.Heap.alloc_of_string ?site h s in
    Ledger.leave p;
    b

  let to_string b = Ledger.timed1 Ledger.heap_copy Orig.Heap.to_string b
  let free b = Ledger.timed1 Ledger.heap_free Orig.Heap.free b
end
