(* Approximate-minimum-degree ordering, a port of the cs_amd quotient-graph
   algorithm (Davis, "Direct Methods for Sparse Linear Systems", CSparse).
   Works on the symmetrized pattern A + Aᵀ with the diagonal dropped, so it
   accepts unsymmetric circuit pencils as they are.

   The quotient graph lives in one integer workspace [ci] with elbow room
   t = cnz + cnz/5 + 2n; eliminated pivots become *elements* whose adjacency
   lists are compacted in place, with garbage collection when the elbow room
   runs out. Degrees are approximate (Amestoy/Davis/Duff bounds), dense rows
   are deferred to a placeholder element [n], mass elimination and hash-based
   supervariable detection collapse indistinguishable nodes, and the final
   permutation is a post-order of the assembly tree. *)

let flip i = -i - 2
(* flip is an involution with flip (-1) = -1, used to tag absorbed objects *)

let wclear mark lemax w n =
  if mark < 2 || mark + lemax < 0 then begin
    for k = 0 to n - 1 do
      if w.(k) <> 0 then w.(k) <- 1
    done;
    2
  end
  else mark

(* iterative depth-first post-order over the assembly tree stored as
   child lists (head/next); emits into [post] starting at position [k] *)
let tdfs root k head next post stack =
  let k = ref k in
  let top = ref 0 in
  stack.(0) <- root;
  while !top >= 0 do
    let p = stack.(!top) in
    let i = head.(p) in
    if i = -1 then begin
      decr top;
      post.(!k) <- p;
      incr k
    end
    else begin
      head.(p) <- next.(i);
      incr top;
      stack.(!top) <- i
    end
  done;
  !k

let ordering a =
  let n, m = Csr.dims a in
  if n <> m then invalid_arg "Amd.ordering: non-square matrix";
  if n = 0 then [||]
  else begin
    (* pattern of A + Aᵀ without the diagonal, in one flat workspace *)
    let pat = Csr.add a (Csr.transpose a) in
    let cnz0 = ref 0 in
    for i = 0 to n - 1 do
      for k = pat.Csr.row_ptr.(i) to pat.Csr.row_ptr.(i + 1) - 1 do
        if pat.Csr.col_ind.(k) <> i then incr cnz0
      done
    done;
    let cnz0 = !cnz0 in
    let nzmax = cnz0 + (cnz0 / 5) + (2 * n) in
    let cp = Array.make (n + 1) 0 in
    let ci = Array.make (max 1 nzmax) 0 in
    let pos = ref 0 in
    for i = 0 to n - 1 do
      cp.(i) <- !pos;
      for k = pat.Csr.row_ptr.(i) to pat.Csr.row_ptr.(i + 1) - 1 do
        let j = pat.Csr.col_ind.(k) in
        if j <> i then begin
          ci.(!pos) <- j;
          incr pos
        end
      done
    done;
    cp.(n) <- !pos;
    let cnz = ref !pos in
    let dense =
      min (n - 2) (max 16 (int_of_float (10.0 *. sqrt (float_of_int n))))
    in
    (* quotient-graph state, one slot per node plus the placeholder [n] *)
    let len = Array.make (n + 1) 0 in
    let nv = Array.make (n + 1) 1 in
    let next = Array.make (n + 1) (-1) in
    let head = Array.make (n + 1) (-1) in
    let elen = Array.make (n + 1) 0 in
    let degree = Array.make (n + 1) 0 in
    let w = Array.make (n + 1) 1 in
    let hhead = Array.make (n + 1) (-1) in
    let last = Array.make (n + 1) (-1) in
    for k = 0 to n - 1 do
      len.(k) <- cp.(k + 1) - cp.(k)
    done;
    len.(n) <- 0;
    for i = 0 to n do
      degree.(i) <- len.(i)
    done;
    let mark = ref (wclear 0 0 w n) in
    elen.(n) <- -2;
    cp.(n) <- -1;
    w.(n) <- 0;
    let nel = ref 0 in
    (* initial degree lists: empty nodes retire immediately, dense nodes
       are absorbed into the placeholder element and ordered last *)
    for i = 0 to n - 1 do
      let d = degree.(i) in
      if d = 0 then begin
        elen.(i) <- -2;
        incr nel;
        cp.(i) <- -1;
        w.(i) <- 0
      end
      else if d > dense then begin
        nv.(i) <- 0;
        elen.(i) <- -1;
        incr nel;
        cp.(i) <- flip n;
        nv.(n) <- nv.(n) + 1
      end
      else begin
        if head.(d) <> -1 then last.(head.(d)) <- i;
        next.(i) <- head.(d);
        head.(d) <- i
      end
    done;
    let mindeg = ref 0 in
    let lemax = ref 0 in
    while !nel < n do
      (* select a pivot of minimum approximate degree *)
      let k = ref (-1) in
      let scanning = ref true in
      while !scanning do
        if !mindeg < n then begin
          k := head.(!mindeg);
          if !k = -1 then incr mindeg else scanning := false
        end
        else scanning := false
      done;
      let k = !k in
      if next.(k) <> -1 then last.(next.(k)) <- -1;
      head.(!mindeg) <- next.(k);
      let elenk = elen.(k) in
      let nvk = ref nv.(k) in
      nel := !nel + !nvk;
      (* garbage-collect [ci] when the elbow room is exhausted *)
      if elenk > 0 && !cnz + !mindeg >= nzmax then begin
        for j = 0 to n - 1 do
          let p = cp.(j) in
          if p >= 0 then begin
            cp.(j) <- ci.(p);
            ci.(p) <- flip j
          end
        done;
        let q = ref 0 and p = ref 0 in
        while !p < !cnz do
          let j = flip ci.(!p) in
          incr p;
          if j >= 0 then begin
            ci.(!q) <- cp.(j);
            cp.(j) <- !q;
            incr q;
            for _ = 0 to len.(j) - 2 do
              ci.(!q) <- ci.(!p);
              incr q;
              incr p
            done
          end
        done;
        cnz := !q
      end;
      (* construct element Lk from k's element list and node list *)
      let dk = ref 0 in
      nv.(k) <- - !nvk;
      let p = ref cp.(k) in
      let pk1 = if elenk = 0 then !p else !cnz in
      let pk2 = ref pk1 in
      for k1 = 1 to elenk + 1 do
        let e, pj0, ln =
          if k1 > elenk then (k, !p, len.(k) - elenk)
          else begin
            let e = ci.(!p) in
            incr p;
            (e, cp.(e), len.(e))
          end
        in
        let pj = ref pj0 in
        for _ = 1 to ln do
          let i = ci.(!pj) in
          incr pj;
          let nvi = nv.(i) in
          if nvi > 0 then begin
            dk := !dk + nvi;
            nv.(i) <- -nvi;
            ci.(!pk2) <- i;
            incr pk2;
            if next.(i) <> -1 then last.(next.(i)) <- last.(i);
            if last.(i) <> -1 then next.(last.(i)) <- next.(i)
            else head.(degree.(i)) <- next.(i)
          end
        done;
        if e <> k then begin
          cp.(e) <- flip k;
          w.(e) <- 0
        end
      done;
      if elenk <> 0 then cnz := !pk2;
      degree.(k) <- !dk;
      cp.(k) <- pk1;
      len.(k) <- !pk2 - pk1;
      elen.(k) <- -2;
      (* scan 1: approximate |Le \ Lk| for each element adjacent to Lk *)
      mark := wclear !mark !lemax w n;
      for pk = pk1 to !pk2 - 1 do
        let i = ci.(pk) in
        let eln = elen.(i) in
        if eln > 0 then begin
          let nvi = -nv.(i) in
          let wnvi = !mark - nvi in
          for p = cp.(i) to cp.(i) + eln - 1 do
            let e = ci.(p) in
            if w.(e) >= !mark then w.(e) <- w.(e) - nvi
            else if w.(e) <> 0 then w.(e) <- degree.(e) + wnvi
          done
        end
      done;
      (* scan 2: approximate external degrees, aggressive absorption,
         mass elimination, and hashing for supervariable detection *)
      for pk = pk1 to !pk2 - 1 do
        let i = ci.(pk) in
        let p1 = cp.(i) in
        let p2 = p1 + elen.(i) - 1 in
        let pn = ref p1 in
        let h = ref 0 and d = ref 0 in
        for p = p1 to p2 do
          let e = ci.(p) in
          if w.(e) <> 0 then begin
            let dext = w.(e) - !mark in
            if dext > 0 then begin
              d := !d + dext;
              ci.(!pn) <- e;
              incr pn;
              h := !h + e
            end
            else begin
              cp.(e) <- flip k;
              w.(e) <- 0
            end
          end
        done;
        elen.(i) <- !pn - p1 + 1;
        let p3 = !pn in
        let p4 = p1 + len.(i) in
        for p = p2 + 1 to p4 - 1 do
          let j = ci.(p) in
          let nvj = nv.(j) in
          if nvj > 0 then begin
            d := !d + nvj;
            ci.(!pn) <- j;
            incr pn;
            h := !h + j
          end
        done;
        if !d = 0 then begin
          (* mass elimination: i is indistinguishable from the pivot *)
          cp.(i) <- flip k;
          let nvi = -nv.(i) in
          dk := !dk - nvi;
          nvk := !nvk + nvi;
          nel := !nel + nvi;
          nv.(i) <- 0;
          elen.(i) <- -1
        end
        else begin
          degree.(i) <- min degree.(i) !d;
          ci.(!pn) <- ci.(p3);
          ci.(p3) <- ci.(p1);
          ci.(p1) <- k;
          len.(i) <- !pn - p1 + 1;
          let h = !h mod n in
          next.(i) <- hhead.(h);
          hhead.(h) <- i;
          last.(i) <- h
        end
      done;
      degree.(k) <- !dk;
      lemax := max !lemax !dk;
      mark := wclear (!mark + !lemax) !lemax w n;
      (* supervariable detection: nodes hashing together with identical
         adjacency are merged *)
      for pk = pk1 to !pk2 - 1 do
        let i0 = ci.(pk) in
        if nv.(i0) < 0 then begin
          let h = last.(i0) in
          let i = ref hhead.(h) in
          hhead.(h) <- -1;
          let continue_bucket = ref true in
          while !continue_bucket do
            if !i <> -1 && next.(!i) <> -1 then begin
              let ic = !i in
              let ln = len.(ic) in
              let eln = elen.(ic) in
              for p = cp.(ic) + 1 to cp.(ic) + ln - 1 do
                w.(ci.(p)) <- !mark
              done;
              let jlast = ref ic in
              let j = ref next.(ic) in
              while !j <> -1 do
                let jj = !j in
                let ok = ref (len.(jj) = ln && elen.(jj) = eln) in
                let p = ref (cp.(jj) + 1) in
                while !ok && !p <= cp.(jj) + ln - 1 do
                  if w.(ci.(!p)) <> !mark then ok := false;
                  incr p
                done;
                if !ok then begin
                  cp.(jj) <- flip ic;
                  nv.(ic) <- nv.(ic) + nv.(jj);
                  nv.(jj) <- 0;
                  elen.(jj) <- -1;
                  j := next.(jj);
                  next.(!jlast) <- !j
                end
                else begin
                  jlast := jj;
                  j := next.(jj)
                end
              done;
              i := next.(ic);
              incr mark
            end
            else continue_bucket := false
          done
        end
      done;
      (* finalize Lk: compact surviving nodes and refile them by degree *)
      let p = ref pk1 in
      for pk = pk1 to !pk2 - 1 do
        let i = ci.(pk) in
        let nvi = -nv.(i) in
        if nvi > 0 then begin
          nv.(i) <- nvi;
          let d = min (degree.(i) + !dk - nvi) (n - !nel - nvi) in
          if head.(d) <> -1 then last.(head.(d)) <- i;
          next.(i) <- head.(d);
          last.(i) <- -1;
          head.(d) <- i;
          mindeg := min !mindeg d;
          degree.(i) <- d;
          ci.(!p) <- i;
          incr p
        end
      done;
      nv.(k) <- !nvk;
      len.(k) <- !p - pk1;
      if len.(k) = 0 then begin
        cp.(k) <- -1;
        w.(k) <- 0
      end;
      if elenk <> 0 then cnz := !p
    done;
    (* post-order the assembly tree: flip parents back, build child
       lists (nodes first, then elements, both high-to-low so lists come
       out ascending), and DFS from every root in ascending order *)
    for i = 0 to n - 1 do
      cp.(i) <- flip cp.(i)
    done;
    for j = 0 to n do
      head.(j) <- -1
    done;
    for j = n downto 0 do
      if nv.(j) <= 0 then begin
        next.(j) <- head.(cp.(j));
        head.(cp.(j)) <- j
      end
    done;
    for e = n downto 0 do
      if nv.(e) > 0 && cp.(e) <> -1 then begin
        next.(e) <- head.(cp.(e));
        head.(cp.(e)) <- e
      end
    done;
    let post = Array.make (n + 1) 0 in
    let stack = Array.make (n + 1) 0 in
    let emitted = ref 0 in
    for i = 0 to n do
      if cp.(i) = -1 then emitted := tdfs i !emitted head next post stack
    done;
    (* the placeholder element n is always emitted last, so the first n
       entries are the permutation over the real nodes *)
    Array.sub post 0 n
  end
