type t = {
  fold : bool;
  mutable names : string array;  (* by index *)
  mutable hashes : int array;  (* by index *)
  mutable next : int array;  (* by index: the next index in its bucket, or -1 *)
  mutable heads : int array;  (* by bucket: the first index, or -1 *)
  mutable count : int;
}

let create ~fold =
  {
    fold;
    names = Array.make 16 "";
    hashes = Array.make 16 0;
    next = Array.make 16 (-1);
    heads = Array.make 16 (-1);
    count = 0;
  }

let norm fold c = if fold then Char.lowercase_ascii c else c

let hash fold s =
  let h = ref 0 in
  for i = 0 to String.length s - 1 do
    h := (!h * 31) + Char.code (norm fold (String.unsafe_get s i))
  done;
  !h lxor (!h lsr 16)

let equal fold a b =
  let n = String.length a in
  n = String.length b
  &&
  let i = ref 0 in
  while !i < n && norm fold (String.unsafe_get a !i) = norm fold (String.unsafe_get b !i) do
    incr i
  done;
  !i = n

let find t s =
  let h = hash t.fold s in
  let i = ref t.heads.(h land (Array.length t.heads - 1)) in
  while !i >= 0 && not (t.hashes.(!i) = h && equal t.fold t.names.(!i) s) do
    i := t.next.(!i)
  done;
  !i

let link t i =
  let b = t.hashes.(i) land (Array.length t.heads - 1) in
  t.next.(i) <- t.heads.(b);
  t.heads.(b) <- i

let add t s =
  let i = t.count in
  if i = Array.length t.names then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    t.names <- grow t.names "";
    t.hashes <- grow t.hashes 0;
    t.next <- grow t.next (-1);
    t.heads <- Array.make (2 * Array.length t.heads) (-1);
    for k = 0 to i - 1 do
      link t k
    done
  end;
  t.names.(i) <- s;
  t.hashes.(i) <- hash t.fold s;
  link t i;
  t.count <- i + 1

let length t = t.count

let names t = Array.sub t.names 0 t.count
