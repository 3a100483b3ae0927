//! Bootstrapping (§4).
//!
//! "A hardware bootstrap button causes the state of the machine to be
//! restored from a disk file whose first page is kept at a fixed location
//! on the disk." The boot file's first data page is pinned at disk address
//! 0; the bootstrap reads it by address alone — no directory, no
//! descriptor — and follows the links, exactly what microcode could do.
//!
//! Also here: the *emergency* OutLoad of §4.1, a last-ditch state save
//! that "could not preserve some of the most vital state (e.g., processor
//! registers)".

use alto_disk::{Disk, DiskAddress, Label, DATA_WORDS};
use alto_fs::descriptor::{boot_fv, BOOT_PAGE_DA};
use alto_fs::file::{bytes_to_words, data_length, unpack_bytes, words_to_bytes};
use alto_fs::leader::LeaderPage;
use alto_fs::names::{FileFullName, PageName};
use alto_fs::{dir, page, FsError};
use alto_machine::state::MachineState;

use crate::errors::OsError;
use crate::os::AltoOs;
use crate::swap::{FLAG_ADDR, MESSAGE_ADDR, MESSAGE_WORDS};

/// The boot file's conventional directory name.
pub const BOOT_FILE_NAME: &str = "Boot.state";

impl<D: Disk> AltoOs<D> {
    /// Installs the current machine state as the boot file: a file whose
    /// page 1 sits at the fixed disk address 0. Subsequent
    /// [`AltoOs::bootstrap`] calls restore this state.
    pub fn install_boot_file(&mut self) -> Result<FileFullName, OsError> {
        let fv = boot_fv();
        let root = self.fs.root_dir();
        let existing = dir::lookup(&mut self.fs, root, BOOT_FILE_NAME)?;
        let file = match existing {
            Some(f) => f,
            None => {
                // Lay the skeleton down by hand: leader anywhere, page 1
                // pinned at DA 0 (reserved busy since format).
                let leader = LeaderPage::new(BOOT_FILE_NAME, self.fs.now()).map_err(OsError::Fs)?;
                let leader_label = Label {
                    fid: fv.serial.words(),
                    version: fv.version,
                    page_number: 0,
                    length: alto_fs::file::PAGE_BYTES as u16,
                    next: BOOT_PAGE_DA,
                    prev: DiskAddress::NIL,
                };
                let leader_da = self
                    .fs
                    .allocate_page(None, leader_label, &leader.encode())?;
                let page1_label = Label {
                    fid: fv.serial.words(),
                    version: fv.version,
                    page_number: 1,
                    length: 0,
                    next: DiskAddress::NIL,
                    prev: leader_da,
                };
                page::allocate_at(
                    self.fs.disk_mut(),
                    BOOT_PAGE_DA,
                    page1_label,
                    &[0; DATA_WORDS],
                )?;
                let file = FileFullName::new(fv, leader_da);
                // Record the last-page hint.
                let mut leader = leader;
                leader.last_page = 1;
                leader.last_da = BOOT_PAGE_DA;
                self.fs.write_leader(file, &leader)?;
                dir::insert(&mut self.fs, root, BOOT_FILE_NAME, file)?;
                file
            }
        };
        // Write the state image in place; page 1 never moves off DA 0
        // because same-size (and growing-in-place) rewrites reuse pages.
        let state = self.capture_for_boot();
        let bytes = words_to_bytes(&state.encode());
        self.fs.write_file(file, &bytes)?;
        Ok(file)
    }

    fn capture_for_boot(&mut self) -> MachineState {
        // Like OutLoad: the image carries the restored-branch flag.
        self.machine.mem.write(FLAG_ADDR, 0);
        for i in 0..MESSAGE_WORDS as u16 {
            self.machine.mem.write(MESSAGE_ADDR + i, 0);
        }
        MachineState::capture(&self.machine)
    }

    /// The hardware bootstrap button: reads the sector at the fixed boot
    /// address, identifies the boot file from its *label*, follows the
    /// links to collect the state image, and restores it. No directory or
    /// descriptor is consulted.
    pub fn bootstrap(&mut self) -> Result<(), OsError> {
        let disk = self.fs.disk_mut();
        let (label, data) = page::read_raw(disk, BOOT_PAGE_DA)?;
        if !label.is_in_use() || label.page_number != 1 {
            return Err(OsError::Fs(alto_fs::FsError::Corrupt {
                da: BOOT_PAGE_DA,
                what: "no boot file at the fixed address",
            }));
        }
        let fv = alto_fs::names::Fv::from_label(&label);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&unpack_bytes(&data)[..data_length(&label)?]);
        // Installs lay the state image out consecutively, so the boot
        // loader makes the §3.6 guess: batch reads at next, next+1, … and
        // let each sector's label check reject a wrong guess. The links in
        // the captured labels steer recovery, so a scattered boot file
        // still loads — it just pays a revolution per jump.
        const BOOT_GUESS: u16 = 32;
        let mut reads = Vec::new();
        let mut next = label.next;
        let mut page_no = 1u16;
        while !next.is_nil() {
            let start = PageName::new(fv, page_no + 1, next);
            page::transfer(
                disk,
                fv,
                &[],
                Some(start),
                BOOT_GUESS,
                &mut Vec::new(),
                &mut reads,
            )?;
            let run = page::confirmed_run(start, &reads);
            // Entry 0's address came from a real link, so its failure is
            // authoritative. Wherever the run ends, the next batch starts
            // from the last verified link.
            for res in &reads[..run.max(1)] {
                let (label, data) = res.as_ref().map_err(FsError::clone)?;
                bytes.extend_from_slice(&unpack_bytes(data)[..data_length(label)?]);
                next = label.next;
            }
            page_no += run as u16;
        }
        let state = MachineState::decode(&bytes_to_words(&bytes))?;
        state.restore(&mut self.machine);
        // Re-attach the resident structures carried in the image.
        let l2 = self.levels().level(2).expect("level 2 exists");
        self.typeahead = crate::typeahead::TypeAhead::attach(&self.machine.mem, l2.base);
        Ok(())
    }

    /// The emergency OutLoad (§4.1): saves the memory image but loses the
    /// processor registers (they are zero in the saved state).
    pub fn emergency_out_load(&mut self, name: &str) -> Result<(), OsError> {
        let file = self.create_state_file(name)?;
        self.machine.mem.write(FLAG_ADDR, 0);
        let mut state = MachineState::capture(&self.machine);
        state.ac = [0; 4];
        state.pc = 0;
        state.carry = false;
        let bytes = words_to_bytes(&state.encode());
        self.fs.write_file(file, &bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_machine::Machine;
    use alto_sim::{SimClock, SimTime, Trace};

    fn os() -> AltoOs {
        let clock = SimClock::new();
        let trace = Trace::new();
        let machine = Machine::new(clock.clone(), trace.clone());
        let drive = DiskDrive::with_formatted_pack(clock, trace, DiskModel::Diablo31, 1);
        AltoOs::install(machine, drive).unwrap()
    }

    #[test]
    fn boot_file_page_one_is_at_the_fixed_address() {
        let mut os = os();
        os.install_boot_file().unwrap();
        let label = os
            .fs
            .disk()
            .pack()
            .unwrap()
            .sector(BOOT_PAGE_DA)
            .unwrap()
            .decoded_label();
        assert!(label.is_in_use());
        assert_eq!(label.page_number, 1);
        assert_eq!(alto_fs::names::Fv::from_label(&label), boot_fv());
    }

    #[test]
    fn bootstrap_restores_the_installed_state() {
        let mut os = os();
        os.machine.pc = 0o7777;
        os.machine.ac[1] = 0xBEA7;
        os.machine.mem.write(0o6000, 0x1234);
        os.install_boot_file().unwrap();

        // The machine is then trashed by a wild program…
        os.machine.pc = 0;
        os.machine.ac = [0; 4];
        os.machine.mem.write(0o6000, 0);
        // …and the user pushes the boot button.
        os.bootstrap().unwrap();
        assert_eq!(os.machine.pc, 0o7777);
        assert_eq!(os.machine.ac[1], 0xBEA7);
        assert_eq!(os.machine.mem.read(0o6000), 0x1234);
    }

    #[test]
    fn bootstrap_survives_losing_every_directory() {
        // The bootstrap consults no directory: scramble them all.
        let mut os = os();
        os.machine.ac[3] = 321;
        os.install_boot_file().unwrap();
        let root = os.fs.root_dir();
        os.fs.write_file(root, &[0xFF; 100]).unwrap();
        os.machine.ac[3] = 0;
        os.bootstrap().unwrap();
        assert_eq!(os.machine.ac[3], 321);
    }

    #[test]
    fn reinstalling_overwrites_in_place() {
        let mut os = os();
        os.machine.ac[0] = 1;
        os.install_boot_file().unwrap();
        let clock = os.machine.clock().clone();
        os.machine.ac[0] = 2;
        let t0 = clock.now();
        os.install_boot_file().unwrap();
        let dt = clock.now() - t0;
        // Second install is an in-place streaming rewrite: ~1 s, not the
        // ~15 s of initial allocation.
        assert!(dt < SimTime::from_secs(3), "reinstall took {dt}");
        os.machine.ac[0] = 0;
        os.bootstrap().unwrap();
        assert_eq!(os.machine.ac[0], 2);
    }

    #[test]
    fn bootstrap_without_boot_file_fails_cleanly() {
        let mut os = os();
        assert!(matches!(
            os.bootstrap(),
            Err(OsError::Fs(alto_fs::FsError::Corrupt { .. }))
        ));
    }

    #[test]
    fn bootstrap_refuses_a_boot_page_label_longer_than_a_page() {
        // The label check matches only the absolutes, so a smashed length
        // word reaches the loader, on the raw-read page 1 and on a guessed
        // page alike: it must refuse the page, not slice past its data.
        let mut os = os();
        os.install_boot_file().unwrap();
        let pack = os.fs.disk().pack().unwrap();
        let next = |da| pack.sector(da).unwrap().decoded_label().next;
        // Page 3 is the first guessed follower of the loader's first batch.
        let page3 = next(next(BOOT_PAGE_DA));
        for da in [BOOT_PAGE_DA, page3] {
            let set_length = |os: &mut AltoOs, length| {
                let pack = os.fs.disk_mut().pack_mut().unwrap();
                std::mem::replace(&mut pack.sector_mut(da).unwrap().label[4], length)
            };
            let good = set_length(&mut os, 600);
            assert_eq!(
                os.bootstrap(),
                Err(OsError::Fs(FsError::BadLength(600))),
                "length smashed at {da}"
            );
            set_length(&mut os, good);
        }
        os.bootstrap().unwrap();
    }

    #[test]
    fn emergency_out_load_loses_registers() {
        let mut os = os();
        os.machine.ac = [5, 6, 7, 8];
        os.machine.pc = 0o1234;
        os.machine.mem.write(0o3000, 99);
        os.emergency_out_load("Emergency.state").unwrap();
        os.in_load_named("Emergency.state", &[0; crate::swap::MESSAGE_WORDS])
            .unwrap();
        // Memory survived; the vital processor state did not (§4.1).
        assert_eq!(os.machine.mem.read(0o3000), 99);
        assert_eq!(os.machine.pc, 0);
        assert_eq!(os.machine.ac[1], 0);
    }
}
