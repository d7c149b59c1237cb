(** CRC-32 (IEEE 802.3 polynomial, as in zlib and gzip).

    Checksums are 32-bit values returned as non-negative OCaml ints.
    The incremental interface carries the conventional inverted
    register: begin with {!start}, fold bytes with {!byte} /
    {!string_sub} / {!bigstring_sub}, and {!finish} to obtain the
    checksum. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val start : int
val finish : int -> int

val byte : int -> int -> int
(** [byte crc b] folds the byte [b] (low 8 bits) into a running crc. *)

val string_sub : int -> string -> int -> int -> int
(** [string_sub crc s pos len] folds [len] bytes of [s] from [pos],
    eight bytes per step (slicing by 8) with a bytewise tail; the result
    equals folding each byte with {!byte}.
    @raise Invalid_argument if the range is not inside [s]. *)

val bigstring_sub : int -> bigstring -> int -> int -> int
(** As {!string_sub}, over a bigarray. *)

val of_string : string -> int
(** One-shot checksum of a whole string. *)

val of_bigstring_sub : bigstring -> int -> int -> int
(** One-shot checksum of [len] bytes of a bigarray from [pos]. *)
