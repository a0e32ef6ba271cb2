(* The class of a fused simulator step, decided from its matrix with the
   cluster classes the statevector engine dispatches on: diagonal,
   monomial (a permutation with phases), sparse (any other matrix with
   zero entries, swept as CSR) and dense (no zero entry). *)

type t = Diagonal | Monomial | Sparse | Dense

let name = function
  | Diagonal -> "diagonal"
  | Monomial -> "monomial"
  | Sparse -> "sparse"
  | Dense -> "dense"

let of_matrix (u : Complex.t array array) =
  let n = Array.length u in
  let nonzero (z : Complex.t) = z.Complex.re <> 0. || z.Complex.im <> 0. in
  let row_nnz = Array.map (fun row -> Array.fold_left (fun a z -> if nonzero z then a + 1 else a) 0 row) u in
  let nnz = Array.fold_left ( + ) 0 row_nnz in
  let cols = Array.make n 0 in
  Array.iter (Array.iteri (fun c z -> if nonzero z then cols.(c) <- cols.(c) + 1)) u;
  let one_per_line = Array.for_all (( = ) 1) row_nnz && Array.for_all (( = ) 1) cols in
  if one_per_line then begin
    let diagonal = ref true in
    Array.iteri (fun r row -> if not (nonzero row.(r)) then diagonal := false) u;
    if !diagonal then Diagonal else Monomial
  end
  else if nnz = n * n then Dense
  else Sparse
