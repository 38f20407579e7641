(** SPICE-flavoured netlist parser.

    Grammar (one element per line, case-insensitive designator prefix):

    {v
    * comment                      ; also "; comment"
    R<name> <n+> <n-> <value>
    C<name> <n+> <n-> <value>
    L<name> <n+> <n-> <value>
    P<name> <n+> <n-> q=<value> alpha=<value>      ; CPE
    V<name> <n+> <n-> <source>
    I<name> <n+> <n-> <source>
    G<name> <n+> <n-> <nc+> <nc-> <gm>             ; VCCS
    E<name> <n+> <n-> <nc+> <nc-> <gain>           ; VCVS
    .end                           ; optional terminator
    v}

    [<value>] accepts engineering suffixes
    [f p n u m k meg g t] (e.g. [1k], [2.2u], [10meg]).

    [<source>] is one of:
    - a bare value or [dc <value>] — constant;
    - [step(<amp>[, <delay>])];
    - [pulse(<low> <high> <delay> <width> <period>)]
      ([period = 0] means one-shot);
    - [sin(<offset> <amp> <freq_hz> [<phase>])];
    - [exp(<amp> <tau>)];
    - [ramp(<slope> [<delay>])];
    - [pwl(<t1> <v1> <t2> <v2> …)].

    Inside parentheses, arguments may be separated by spaces or
    commas. Outside them, tokens are separated by spaces, tabs and
    commas. A [;] ends a line's content, a line whose first non-blank
    character is [*] is a comment, and a [.end] line (any case) is
    skipped; lines after it are still read. *)

exception Parse_error of { line : int; message : string }

val parse_value : string -> float
(** Engineering-notation number. Raises [Failure] on malformed input. *)

val parse_string : string -> Netlist.t
(** Raises {!Parse_error} with a 1-based line number on any malformed
    line — malformed values, unknown elements, and netlist-level
    rejections (duplicate designators, non-positive element values)
    are all reported this way; no bare [Failure] escapes. The first
    malformed line in text order is the one reported.

    Lines end at ['\n'] only, so line [k] is the text after the
    [(k-1)]-th ['\n'] whatever the line ending: with CRLF endings the
    ['\r'] stays on its line and is dropped with the other blanks
    ([' '], ['\t'], ['\r'], ['\012']) that {!String.trim} removes
    from both ends. Line numbers and messages are therefore the same
    for CRLF and LF text. The text is scanned once, byte by byte. *)

val parse_file : string -> Netlist.t
