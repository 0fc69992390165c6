(** Analysis resources beyond the findings (paper §III.D): variables,
    functions, included files and token counts exposed to help review. *)

type t = {
  st_files : int;
  st_tokens : int;             (** significant tokens over all files *)
  st_loc : int;
  st_functions : int;          (** free functions *)
  st_classes : int;
  st_methods : int;
  st_variables : int;          (** distinct variable names *)
  st_superglobal_reads : int;  (** occurrences of configured input vectors *)
  st_echo_sinks : int;         (** echo/print output points *)
  st_includes : int;           (** include/require expressions *)
}

val empty : t

val of_project : Phplang.Project.t -> t
(** Lexes each file once, counts its significant tokens and parses them.
    A file the lexer rejects contributes its LOC count only; a file that
    fails to parse or exceeds the nesting budget contributes its token and
    LOC counts only.  Never raises on malformed input. *)

val pp : Format.formatter -> t -> unit
