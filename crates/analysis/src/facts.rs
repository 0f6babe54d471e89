//! Column-major storage for the trace fact table.
//!
//! The star schema's trace table used to be a `Vec<(u32, TraceRecord)>`
//! — 96 bytes per row, of which a typical analysis scan reads two or
//! three fields. [`FactTable`] stores the same rows as one vector per
//! column (struct-of-arrays), so the hot scans — gap detection over
//! `start_ticks`, activity binning over `transferred`, latency CDFs over
//! the two timestamp columns — walk densely packed arrays and stay
//! cache-resident. Row reconstruction ([`FactTable::get`],
//! [`FactTable::iter`]) is kept for the cold consumers (replay, digests)
//! and is lossless: a reconstructed [`TraceRecord`] is field-for-field
//! identical to the record that was pushed, which is what keeps the
//! determinism digests bit-identical across the AoS→SoA change.

use nt_io::{AccessMode, CreateOptions, Disposition, EventKind, NtStatus, SetInfoKind};
use nt_trace::TraceRecord;

/// The trace fact table in struct-of-arrays layout. All columns always
/// have the same length; row `i` of every column belongs to one record.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactTable {
    machine: Vec<u32>,
    code: Vec<u8>,
    flags: Vec<u8>,
    status: Vec<NtStatus>,
    set_info: Vec<Option<SetInfoKind>>,
    access: Vec<Option<AccessMode>>,
    disposition: Vec<Option<Disposition>>,
    options: Vec<Option<CreateOptions>>,
    file_object: Vec<u64>,
    fcb: Vec<u64>,
    process: Vec<u32>,
    volume: Vec<u32>,
    offset: Vec<u64>,
    length: Vec<u64>,
    transferred: Vec<u64>,
    file_size: Vec<u64>,
    byte_offset: Vec<u64>,
    start_ticks: Vec<u64>,
    end_ticks: Vec<u64>,
}

impl FactTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows in the table.
    pub fn len(&self) -> usize {
        self.machine.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.machine.is_empty()
    }

    /// Appends one record traced on `machine`.
    pub fn push(&mut self, machine: u32, r: &TraceRecord) {
        self.machine.push(machine);
        self.code.push(r.code);
        self.flags.push(r.flags);
        self.status.push(r.status);
        self.set_info.push(r.set_info);
        self.access.push(r.access);
        self.disposition.push(r.disposition);
        self.options.push(r.options);
        self.file_object.push(r.file_object);
        self.fcb.push(r.fcb);
        self.process.push(r.process);
        self.volume.push(r.volume);
        self.offset.push(r.offset);
        self.length.push(r.length);
        self.transferred.push(r.transferred);
        self.file_size.push(r.file_size);
        self.byte_offset.push(r.byte_offset);
        self.start_ticks.push(r.start_ticks);
        self.end_ticks.push(r.end_ticks);
    }

    /// Appends a whole machine stream.
    pub fn extend(&mut self, machine: u32, records: &[TraceRecord]) {
        for r in records {
            self.push(machine, r);
        }
    }

    /// Reconstructs row `i` as the record that was pushed.
    pub fn get(&self, i: usize) -> TraceRecord {
        TraceRecord {
            code: self.code[i],
            flags: self.flags[i],
            status: self.status[i],
            set_info: self.set_info[i],
            access: self.access[i],
            disposition: self.disposition[i],
            options: self.options[i],
            file_object: self.file_object[i],
            fcb: self.fcb[i],
            process: self.process[i],
            volume: self.volume[i],
            offset: self.offset[i],
            length: self.length[i],
            transferred: self.transferred[i],
            file_size: self.file_size[i],
            byte_offset: self.byte_offset[i],
            start_ticks: self.start_ticks[i],
            end_ticks: self.end_ticks[i],
        }
    }

    /// Row `i`'s machine.
    pub fn machine_at(&self, i: usize) -> u32 {
        self.machine[i]
    }

    /// Full rows, reconstructed in table order — the compatibility path
    /// for consumers that need every field (replay, digests, tests).
    pub fn iter(&self) -> impl Iterator<Item = (u32, TraceRecord)> + '_ {
        (0..self.len()).map(move |i| (self.machine[i], self.get(i)))
    }

    /// The machine column.
    pub fn machines(&self) -> &[u32] {
        &self.machine
    }

    /// The event-kind code column (see [`EventKind::code`]).
    pub fn codes(&self) -> &[u8] {
        &self.code
    }

    /// The header-flags column (test bits with the
    /// [`TraceRecord::FLAG_PAGING`]-family constants).
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// The completion-status column.
    pub fn statuses(&self) -> &[NtStatus] {
        &self.status
    }

    /// The file-object column.
    pub(crate) fn file_objects(&self) -> &[u64] {
        &self.file_object
    }

    /// The requesting-process column.
    pub fn processes(&self) -> &[u32] {
        &self.process
    }

    /// The requested-length column.
    pub fn lengths(&self) -> &[u64] {
        &self.length
    }

    /// The bytes-transferred column.
    pub fn transfers(&self) -> &[u64] {
        &self.transferred
    }

    /// The arrival-timestamp column (100 ns ticks).
    pub fn start_ticks(&self) -> &[u64] {
        &self.start_ticks
    }

    /// The completion-timestamp column (100 ns ticks).
    pub fn end_ticks(&self) -> &[u64] {
        &self.end_ticks
    }

    /// Row `i`'s event kind.
    pub(crate) fn kind_at(&self, i: usize) -> EventKind {
        EventKind::from_code(self.code[i]).expect("table carries valid codes")
    }

    /// Row `i`'s PagingIO bit.
    pub fn is_paging(&self, i: usize) -> bool {
        self.flags[i] & TraceRecord::FLAG_PAGING != 0
    }

    /// Sorts the table by `(start_ticks, machine, file_object)` — the
    /// collection order every analysis assumes. Columns are permuted
    /// together so rows stay intact.
    pub(crate) fn sort_by_time(&mut self) {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        perm.sort_by_key(|&i| {
            let i = i as usize;
            (self.start_ticks[i], self.machine[i], self.file_object[i])
        });
        fn apply<T: Copy>(perm: &[u32], col: &mut Vec<T>) {
            let out: Vec<T> = perm.iter().map(|&i| col[i as usize]).collect();
            *col = out;
        }
        apply(&perm, &mut self.machine);
        apply(&perm, &mut self.code);
        apply(&perm, &mut self.flags);
        apply(&perm, &mut self.status);
        apply(&perm, &mut self.set_info);
        apply(&perm, &mut self.access);
        apply(&perm, &mut self.disposition);
        apply(&perm, &mut self.options);
        apply(&perm, &mut self.file_object);
        apply(&perm, &mut self.fcb);
        apply(&perm, &mut self.process);
        apply(&perm, &mut self.volume);
        apply(&perm, &mut self.offset);
        apply(&perm, &mut self.length);
        apply(&perm, &mut self.transferred);
        apply(&perm, &mut self.file_size);
        apply(&perm, &mut self.byte_offset);
        apply(&perm, &mut self.start_ticks);
        apply(&perm, &mut self.end_ticks);
    }
}

impl FromIterator<(u32, TraceRecord)> for FactTable {
    fn from_iter<I: IntoIterator<Item = (u32, TraceRecord)>>(iter: I) -> Self {
        let mut t = FactTable::new();
        for (m, r) in iter {
            t.push(m, &r);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_io::MajorFunction;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            code: EventKind::Irp(MajorFunction::Read).code(),
            flags: if i.is_multiple_of(2) {
                TraceRecord::FLAG_PAGING
            } else {
                TraceRecord::FLAG_LOCAL
            },
            status: NtStatus::Success,
            set_info: None,
            access: Some(AccessMode::Read),
            disposition: None,
            options: None,
            file_object: i,
            fcb: i * 7,
            process: i as u32,
            volume: 0,
            offset: i * 4096,
            length: 4096,
            transferred: 4096,
            file_size: 1 << 20,
            byte_offset: i * 4096,
            start_ticks: 1_000 - i,
            end_ticks: 1_010 - i,
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let mut t = FactTable::new();
        for i in 0..10 {
            t.push(3, &rec(i));
        }
        assert_eq!(t.len(), 10);
        for i in 0..10 {
            assert_eq!(t.get(i), rec(i as u64));
            assert_eq!(t.machine_at(i), 3);
        }
        let rows: Vec<(u32, TraceRecord)> = t.iter().collect();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[4], (3, rec(4)));
    }

    #[test]
    fn sort_permutes_all_columns_together() {
        let mut t = FactTable::new();
        // start_ticks decrease with i, so sorting reverses the rows.
        for i in 0..6 {
            t.push(1, &rec(i));
        }
        t.sort_by_time();
        assert!(t.start_ticks().windows(2).all(|w| w[0] <= w[1]));
        for i in 0..6 {
            assert_eq!(t.get(i), rec(5 - i as u64), "row stayed intact");
        }
    }

    #[test]
    fn column_scans_agree_with_row_scans() {
        let t: FactTable = (0..20u64).map(|i| (i as u32 % 3, rec(i))).collect();
        let col_paging = (0..t.len()).filter(|&i| t.is_paging(i)).count();
        let row_paging = t.iter().filter(|(_, r)| r.is_paging()).count();
        assert_eq!(col_paging, row_paging);
        let col_bytes: u64 = t.transfers().iter().sum();
        let row_bytes: u64 = t.iter().map(|(_, r)| r.transferred).sum();
        assert_eq!(col_bytes, row_bytes);
        assert_eq!(t.kind_at(0), t.get(0).kind());
    }
}
